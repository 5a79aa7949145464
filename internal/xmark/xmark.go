// Package xmark generates XMark-like auction documents [19] and carries
// the query workload of the paper's experiments: the fifteen tree
// queries of Figure 2 (Q01–Q09 from XPathMark [4], Q10–Q15 from the
// paper) and the four synthetic configurations A–D of Figure 5.
//
// The generator is deterministic for a given (Seed, Scale): element
// counts scale linearly, structural ratios (items per region, keyword
// density, parlist recursion) stay fixed, so the node-count ratios of
// Figure 3 reproduce at any scale.
package xmark

import (
	"repro/internal/tree"
)

// Config controls document generation.
type Config struct {
	// Scale is the XMark scaling factor; 1.0 has the element counts of
	// the paper's 116MB document, which is ≈5.7M nodes — this generator
	// yields 2 179 229 nodes at 1.0 (1 089 007 at 0.5). Tests use
	// 0.001–0.01.
	Scale float64
	// Seed selects the pseudo-random stream; generation is
	// deterministic per (Seed, Scale).
	Seed int64
}

// rng is a deterministic xorshift64* generator; math/rand would work but
// an explicit PRNG pins the byte-for-byte document across Go versions.
type rng struct{ s uint64 }

func newRng(seed int64) *rng {
	s := uint64(seed)
	if s == 0 {
		s = 0x9E3779B97F4A7C15
	}
	return &rng{s: s}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// chance reports true with probability pct/100.
func (r *rng) chance(pct int) bool { return r.intn(100) < pct }

// counts are the base element counts at Scale 1, proportioned after the
// XMark specification.
type counts struct {
	itemsPerRegion int
	persons        int
	openAuctions   int
	closedAuctions int
	categories     int
}

func scaled(scale float64) counts {
	f := func(base int) int {
		n := int(float64(base) * scale)
		if n < 1 {
			n = 1
		}
		return n
	}
	return counts{
		itemsPerRegion: f(3625), // 6 regions ≈ 21750 items
		persons:        f(25500),
		openAuctions:   f(12000),
		closedAuctions: f(9750),
		categories:     f(1000),
	}
}

var regions = []string{"africa", "asia", "australia", "europe", "namerica", "samerica"}

// Generate builds an XMark-like document.
func Generate(cfg Config) *tree.Document {
	if cfg.Scale <= 0 {
		cfg.Scale = 0.01
	}
	r := newRng(cfg.Seed)
	c := scaled(cfg.Scale)
	b := tree.NewBuilder()
	b.Open("site")

	b.Open("regions")
	for _, reg := range regions {
		b.Open(reg)
		for i := 0; i < c.itemsPerRegion; i++ {
			genItem(b, r)
		}
		b.Close()
	}
	b.Close()

	b.Open("categories")
	for i := 0; i < c.categories; i++ {
		b.Open("category")
		leaf(b, "name", "category name")
		genDescription(b, r, 0)
		b.Close()
	}
	b.Close()

	b.Open("catgraph")
	for i := 0; i < c.categories; i++ {
		b.Open("edge")
		b.Close()
	}
	b.Close()

	b.Open("people")
	for i := 0; i < c.persons; i++ {
		genPerson(b, r)
	}
	b.Close()

	b.Open("open_auctions")
	for i := 0; i < c.openAuctions; i++ {
		genOpenAuction(b, r)
	}
	b.Close()

	b.Open("closed_auctions")
	for i := 0; i < c.closedAuctions; i++ {
		genClosedAuction(b, r)
	}
	b.Close()

	b.Close() // site
	return b.MustFinish()
}

func leaf(b *tree.Builder, name, text string) {
	b.Open(name)
	if text != "" {
		b.Text(text)
	}
	b.Close()
}

func genItem(b *tree.Builder, r *rng) {
	b.Open("item")
	leaf(b, "location", "United States")
	leaf(b, "quantity", "1")
	leaf(b, "name", "item name")
	leaf(b, "payment", "Creditcard")
	genDescription(b, r, 0)
	leaf(b, "shipping", "Will ship internationally")
	for i, n := 0, 1+r.intn(3); i < n; i++ {
		b.Open("incategory")
		b.Close()
	}
	b.Open("mailbox")
	for i, n := 0, r.intn(3); i < n; i++ {
		b.Open("mail")
		leaf(b, "from", "sender")
		leaf(b, "to", "receiver")
		if r.chance(80) {
			leaf(b, "date", "07/21/2000")
		}
		genText(b, r)
		b.Close()
	}
	b.Close()
	b.Close()
}

// genText emits a <text> with mixed content: character data, keywords
// (which may nest an emph, for Q13/Q14), emph and bold.
func genText(b *tree.Builder, r *rng) {
	b.Open("text")
	for i, n := 0, 1+r.intn(4); i < n; i++ {
		switch r.intn(10) {
		case 0, 1, 2, 3:
			b.Text("some words ")
		case 4, 5, 6:
			b.Open("keyword")
			b.Text("kw")
			if r.chance(25) {
				leaf(b, "emph", "nested")
			}
			b.Close()
		case 7, 8:
			leaf(b, "emph", "emphasis")
		default:
			leaf(b, "bold", "bold")
		}
	}
	b.Close()
}

// genDescription emits description → (text | parlist); parlists recurse
// through listitems up to depth 2, which is where //listitem//keyword
// and Q03/Q08 get their matches.
func genDescription(b *tree.Builder, r *rng, depth int) {
	b.Open("description")
	if r.chance(60) {
		genText(b, r)
	} else {
		genParlist(b, r, depth)
	}
	b.Close()
}

func genParlist(b *tree.Builder, r *rng, depth int) {
	b.Open("parlist")
	for i, n := 0, 1+r.intn(3); i < n; i++ {
		b.Open("listitem")
		if depth < 2 && r.chance(30) {
			genParlist(b, r, depth+1)
		} else {
			genText(b, r)
		}
		b.Close()
	}
	b.Close()
}

func genPerson(b *tree.Builder, r *rng) {
	b.Open("person")
	leaf(b, "name", "person name")
	leaf(b, "emailaddress", "mailto:someone@example.com")
	if r.chance(60) {
		leaf(b, "phone", "+1 555 1234")
	}
	if r.chance(70) {
		b.Open("address")
		leaf(b, "street", "1 Main St")
		leaf(b, "city", "Sydney")
		leaf(b, "country", "Australia")
		leaf(b, "zipcode", "2000")
		b.Close()
	}
	if r.chance(40) {
		leaf(b, "homepage", "http://example.com")
	}
	if r.chance(30) {
		leaf(b, "creditcard", "1234 5678")
	}
	if r.chance(60) {
		b.Open("profile")
		for i, n := 0, r.intn(3); i < n; i++ {
			b.Open("interest")
			b.Close()
		}
		if r.chance(50) {
			leaf(b, "education", "Graduate School")
		}
		leaf(b, "business", "No")
		if r.chance(60) {
			leaf(b, "age", "32")
		}
		b.Close()
	}
	b.Open("watches")
	for i, n := 0, r.intn(2); i < n; i++ {
		b.Open("watch")
		b.Close()
	}
	b.Close()
	b.Close()
}

func genOpenAuction(b *tree.Builder, r *rng) {
	b.Open("open_auction")
	leaf(b, "initial", "17.50")
	for i, n := 0, r.intn(3); i < n; i++ {
		b.Open("bidder")
		leaf(b, "date", "08/12/2000")
		leaf(b, "time", "11:42:12")
		b.Open("personref")
		b.Close()
		leaf(b, "increase", "1.50")
		b.Close()
	}
	leaf(b, "current", "24.50")
	b.Open("itemref")
	b.Close()
	b.Open("seller")
	b.Close()
	genAnnotation(b, r)
	leaf(b, "quantity", "1")
	leaf(b, "type", "Regular")
	b.Open("interval")
	leaf(b, "start", "03/05/2000")
	leaf(b, "end", "03/25/2000")
	b.Close()
	b.Close()
}

func genClosedAuction(b *tree.Builder, r *rng) {
	b.Open("closed_auction")
	b.Open("seller")
	b.Close()
	b.Open("buyer")
	b.Close()
	b.Open("itemref")
	b.Close()
	leaf(b, "price", "50.00")
	leaf(b, "date", "02/01/2000")
	leaf(b, "quantity", "1")
	leaf(b, "type", "Regular")
	genAnnotation(b, r)
	b.Close()
}

// genAnnotation: annotation → author, description, happiness; closed
// auction descriptions favor parlists so Q03's path has matches.
func genAnnotation(b *tree.Builder, r *rng) {
	b.Open("annotation")
	b.Open("author")
	b.Close()
	b.Open("description")
	if r.chance(55) {
		genParlist(b, r, 0)
	} else {
		genText(b, r)
	}
	b.Close()
	leaf(b, "happiness", "8")
	b.Close()
}
