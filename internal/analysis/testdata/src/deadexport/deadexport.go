// Package deadexport is the deadexport fixture. It is loaded alone under
// an internal/ import path, so an export counts as used only when another
// declaration in this file uses it.
package deadexport

import "errors"

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

func run() float64 {
	var s shaper = &Widget{err: Used()}
	return s.Area()
}
