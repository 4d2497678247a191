// Command spin calls Wheel.Spin through the Spinner interface.
package main

import (
	"fmt"

	"surface/internal/widget"
)

func main() {
	var s widget.Spinner = widget.Wheel{}
	fmt.Println(s.Spin())
}
