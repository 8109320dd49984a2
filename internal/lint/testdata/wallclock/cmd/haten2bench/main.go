// The harness CLI prints simulated tables; like internal/bench it is
// not exempt.
package main

import (
	"fmt"
	"time"
)

func main() {
	fmt.Println(time.Now()) // want "time.Now reads the wall clock"
}
