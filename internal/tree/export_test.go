package tree

// SpareCapacity reports how many bytes d's five arrays and text blob
// hold beyond their lengths.
func (d *Document) SpareCapacity() int {
	return 2*(cap(d.labels)-len(d.labels)) +
		4*(cap(d.parent)-len(d.parent)+cap(d.lastDesc)-len(d.lastDesc)+
			cap(d.textNodes)-len(d.textNodes)+cap(d.textOff)-len(d.textOff)) +
		cap(d.textBlob) - len(d.textBlob)
}

// RequireMatchesReference is the reference builder's check (see
// reference_test.go) for the tests outside the package, which can
// import the generators.
var RequireMatchesReference = requireMatchesReference
