// Package deadexport is the deadexport fixture. It is loaded alone under
// an internal/ import path, so an export counts as used only when another
// declaration in this file uses it.
package deadexport

import (
	"encoding/json"
	"errors"
)

func Unused() {} // want "exported func Unused is used by no non-test code"

const Limit = 3 // want "exported const Limit is used by no non-test code"

type Orphan struct{} // want "exported type Orphan is used by no non-test code"

// Used is called by run, so it is clean.
func Used() error { return errors.New("used") }

// Widget is named by run.
type Widget struct{ err error }

func (w *Widget) Spin() {} // want "exported method Widget.Spin is used by no non-test code"

// Area is reached only through shaper, an interface this package declares.
func (w *Widget) Area() float64 { return 1 }

// String and Unwrap are called by fmt and errors by convention.
func (w *Widget) String() string { return "widget" }
func (w *Widget) Unwrap() error  { return w.err }

type shaper interface{ Area() float64 }

// gadget is unexported, so its exported method cannot leave the package.
type gadget struct{}

func (gadget) Exported() {}

//krakcheck:ignore deadexport called from a module the check does not load
func Kept() {}

// Gauge is named by run, which writes Level and reads Scale.
type Gauge struct {
	Level int     // want "exported field Gauge.Level is read by no non-test code"
	Scale float64 // want "exported field Gauge.Scale is set by no non-test code"

	// A struct tag says another module reads or sets the field.
	Label string `json:"label"`

	//krakcheck:ignore deadexport a test oracle for run's bookkeeping
	Steps []int
}

// Wire goes to json.Unmarshal, which sets and reads its fields unnamed.
type Wire struct{ Count int }

// Key is a map key: the map compares, so reads, every field.
type Key struct{ A, B int }

func run() float64 {
	var s shaper = &Widget{err: Used()}
	g := &Gauge{}
	g.Level++
	var w Wire
	_ = json.Unmarshal([]byte(`{"Count":1}`), &w)
	seen := map[Key]bool{}
	return s.Area() * g.Scale * float64(len(seen))
}
