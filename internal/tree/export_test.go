package tree

// SpareCapacity reports how many bytes d's seven arrays and text blob
// hold beyond their lengths.
func (d *Document) SpareCapacity() int {
	return 4*(cap(d.labels)-len(d.labels)+cap(d.parent)-len(d.parent)+
		cap(d.firstChild)-len(d.firstChild)+cap(d.nextSibling)-len(d.nextSibling)+
		cap(d.lastDesc)-len(d.lastDesc)+cap(d.depth)-len(d.depth)+
		cap(d.textOff)-len(d.textOff)) + cap(d.textBlob) - len(d.textBlob)
}
