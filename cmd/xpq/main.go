// Command xpq evaluates an XPath query over an XML file with a chosen
// strategy and reports the selected nodes:
//
//	xpq -file doc.xml -query '//listitem//keyword' [-strategy auto] [-paths] [-stats]
//
// With -xmark SCALE a generated XMark document is used instead of a file.
// Documents can be persisted in the XQO2 resident format (the file xpqd
// -mmap serves zero-copy) so large XMark trees parse once and reopen in
// microseconds:
//
//	xpq -xmark 1.0 -save auction.xqo2           # generate once, save
//	xpq -load auction.xqo2 -query '//keyword'   # mmap, no parse
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro"
)

func main() {
	var (
		file     = flag.String("file", "", "XML input file")
		load     = flag.String("load", "", "XQO2 document file to load (written by -save)")
		save     = flag.String("save", "", "write the loaded document to this XQO2 file")
		xmarkSc  = flag.Float64("xmark", 0, "generate an XMark document at this scale instead of reading a file")
		seed     = flag.Int64("seed", 1, "XMark generator seed")
		query    = flag.String("query", "", "XPath query (required unless only -save)")
		strategy = flag.String("strategy", "auto", "auto|naive|jumping|memoized|optimized|hybrid|topdown-det|stepwise")
		paths    = flag.Bool("paths", false, "print the label path of each selected node")
		stats    = flag.Bool("stats", false, "print evaluation statistics")
		limit    = flag.Int("limit", 20, "maximum selected nodes to print (0 = all)")
	)
	flag.Parse()
	if *query == "" && *save == "" {
		fmt.Fprintln(os.Stderr, "xpq: -query is required (unless only saving with -save)")
		flag.Usage()
		os.Exit(2)
	}

	var doc *repro.Document
	var err error
	switch {
	case *xmarkSc > 0:
		doc = repro.GenerateXMark(*xmarkSc, *seed)
	case *load != "":
		doc, err = repro.LoadDocumentFile(*load)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xpq:", err)
			os.Exit(1)
		}
	case *file != "":
		doc, err = repro.ParseXMLFile(*file)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xpq:", err)
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "xpq: need -file, -load or -xmark")
		os.Exit(2)
	}

	if *save != "" {
		if err := repro.SaveDocumentFile(*save, doc); err != nil {
			fmt.Fprintln(os.Stderr, "xpq:", err)
			os.Exit(1)
		}
		fmt.Printf("saved %d nodes to %s\n", doc.NumNodes(), *save)
		if *query == "" {
			return
		}
	}

	strat, ok := repro.ParseStrategy(*strategy)
	if !ok {
		fmt.Fprintf(os.Stderr, "xpq: unknown strategy %q\n", *strategy)
		os.Exit(2)
	}

	eng := repro.NewEngine(doc)
	start := time.Now()
	ans, err := eng.QueryWith(*query, strat)
	elapsed := time.Since(start)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xpq:", err)
		os.Exit(1)
	}
	fmt.Printf("%d nodes selected (%s, %.3f ms)\n",
		len(ans.Nodes), ans.Strategy, float64(elapsed.Nanoseconds())/1e6)
	if *stats {
		fmt.Printf("document nodes: %d, visited: %d", doc.NumNodes(), ans.Visited)
		if ans.MemoEntries > 0 {
			fmt.Printf(", memo entries: %d", ans.MemoEntries)
		}
		fmt.Println()
	}
	n := len(ans.Nodes)
	if *limit > 0 && n > *limit {
		n = *limit
	}
	for _, v := range ans.Nodes[:n] {
		if *paths {
			fmt.Printf("  node %d  %s\n", v, doc.Path(v))
		} else {
			fmt.Printf("  node %d  <%s>\n", v, doc.LabelName(v))
		}
	}
	if n < len(ans.Nodes) {
		fmt.Printf("  ... and %d more\n", len(ans.Nodes)-n)
	}
}
