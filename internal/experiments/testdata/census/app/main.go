// Command app is the code census fixture's program root.
package main

import (
	"fmt"

	"fixture/lib"
)

func main() {
	d := lib.Disk{Backing: "file"}
	fmt.Println(d.Backing, lib.Total([]lib.Shape{lib.Square{Side: 2}}), lib.Describe(3))
	fmt.Println(lib.Collect(&lib.Stats{}, &lib.Ledger{}, lib.Key{A: 1}, lib.Key{B: 2}))
}
