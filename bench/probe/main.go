// Command probe is the benchmark's host-speed probe: a fixed amount of
// CPU work of the census's kind (big-integer modular arithmetic that
// allocates) on two goroutines, taking about 50 ms on a 2-vCPU 2.1 GHz
// virtual machine. The harness runs it before and after every timed dse
// run and scales that run's times by how fast the probe ran next to it,
// which cancels the drift of the host's speed between runs. It never
// changes with the repository's code, so both sides of a comparison
// scale by the same yardstick.
package main

import (
	"math/big"
	"sync"
)

func main() {
	p, _ := new(big.Int).SetString("6864797660130609714981900799081393217269435300143305409394463459185543183397656052122559640661454554977296311391480858037121987999716643812574028291115057151", 10)
	var wg sync.WaitGroup
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := big.NewInt(int64(12345 + g))
			for range 40000 {
				y := new(big.Int).Mul(x, x)
				x = y.Mod(y, p)
			}
		}()
	}
	wg.Wait()
}
