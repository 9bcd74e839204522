// Command app is the fixture module's caller.
package main

import "deadfix/internal/lib"

func main() {
	_ = lib.Used()
	_ = lib.NewTally().Bump()
}
