// Package lib holds the census fixture's cases: two kinds of dead code a
// rule that matches by name cannot see, two live methods no call names by
// type, and (fields.go) one field per field census rule.
package lib

import "fmt"

// Disk's Backing field is read by the program.
type Disk struct {
	Backing string
}

// Store.Backing is dead: nothing calls it, but its name is a live field's.
type Store struct{}

func (Store) Backing() string { return "store" }

// ping and pong are dead: each calls only the other.
func ping(n int) int {
	if n == 0 {
		return 0
	}
	return pong(n - 1)
}

func pong(n int) int { return ping(n) }

// Shape's Area is called only through the interface.
type Shape interface{ Area() float64 }

// Square.Area is live: Total calls Area on a Shape.
type Square struct{ Side float64 }

func (s Square) Area() float64 { return s.Side * s.Side }

// Total sums the shapes' areas.
func Total(shapes []Shape) float64 {
	total := 0.0
	for _, s := range shapes {
		total += s.Area()
	}
	return total
}

// Level.String is live: fmt calls it on the Level that Describe hands it.
type Level int

func (l Level) String() string { return fmt.Sprintf("level %d", int(l)) }

// Describe renders a level.
func Describe(l Level) string { return fmt.Sprint(l) }
