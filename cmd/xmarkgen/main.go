// Command xmarkgen writes a deterministic XMark-like document to stdout
// or a file:
//
//	xmarkgen -scale 0.05 -seed 1 -out doc.xml
//
// Scale 1.0 has the element counts of the paper's 116MB document, which
// is ≈5.7M nodes; this generator yields 2 179 229 nodes at 1.0 (1 089 007
// at 0.5).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"repro"
)

func main() {
	var (
		scale = flag.Float64("scale", 0.01, "XMark scale factor")
		seed  = flag.Int64("seed", 1, "generator seed")
		out   = flag.String("out", "", "output file (default stdout)")
		stats = flag.Bool("stats", false, "print node statistics to stderr")
	)
	flag.Parse()

	doc := repro.GenerateXMark(*scale, *seed)
	if *stats {
		fmt.Fprintf(os.Stderr, "xmarkgen: scale=%g seed=%d nodes=%d labels=%d\n",
			*scale, *seed, doc.NumNodes(), doc.Names().Size())
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xmarkgen:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(doc.XMLString()); err != nil {
		fmt.Fprintln(os.Stderr, "xmarkgen:", err)
		os.Exit(1)
	}
	if err := bw.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "xmarkgen:", err)
		os.Exit(1)
	}
}
