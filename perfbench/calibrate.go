package main

import (
	"fmt"
	"math/rand"
	"syscall"
	"time"
	"unsafe"
)

// The machine is a virtual machine whose cores are shared with other
// guests, and how much they take changes from minute to minute: the
// same work can take half again as long a few minutes later. So a run
// also times a fixed probe of the benchmark's own every probeEvery of
// measured time, and scales every time it reports by probeNominal over
// the probe's median time in the run: times read as they would on the
// machine when the probe takes probeNominal.
//
// The probe is a chain of dependent loads through probeChain entries
// scattered over a 32 MiB region, walked once untimed so that it is in
// cache and then probePasses times timed: it measures how fast the core
// reaches its caches, which is what the other guests slow down. The
// region is mapped outside the Go heap, so the program's heap and
// garbage collection do not see it; the probe allocates nothing and
// calls nothing of the program, and the untimed pass makes it
// independent of what the program left in the caches, so a change to
// the program cannot move it. Per-layer metrics are not scaled; the
// probe's median time is among them as machine.probe_us.
const (
	probeRegion  = 32 << 20 // bytes
	probeChain   = 1000
	probePasses  = 4
	probeNominal = 40 * time.Microsecond
	probeEvery   = 2 * time.Millisecond
	maxProbes    = 8
)

type probe struct {
	mem  []byte
	next []int32 // the region as int32 entries; only the chain is set
	sink int32
}

// newProbe maps the region and links probeChain distinct entries of
// it, chosen by a fixed seed, into one cycle through entry 0.
func newProbe() (*probe, error) {
	mem, err := syscall.Mmap(-1, 0, probeRegion, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map the probe region: %w", err)
	}
	p := &probe{mem: mem, next: unsafe.Slice((*int32)(unsafe.Pointer(&mem[0])), probeRegion/4)}
	rng := rand.New(rand.NewSource(1))
	chain := []int32{0}
	seen := map[int32]bool{0: true}
	for len(chain) < probeChain {
		if e := int32(rng.Intn(len(p.next))); !seen[e] {
			seen[e] = true
			chain = append(chain, e)
		}
	}
	for i, e := range chain {
		p.next[e] = chain[(i+1)%len(chain)]
	}
	return p, nil
}

func (p *probe) close() { _ = syscall.Munmap(p.mem) }

func (p *probe) walk() {
	j := int32(0)
	for i := 0; i < probeChain; i++ {
		j = p.next[j]
	}
	p.sink += j
}

// once runs the probe and returns the time of its timed passes.
func (p *probe) once() time.Duration {
	p.walk()
	t0 := time.Now()
	for i := 0; i < probePasses; i++ {
		p.walk()
	}
	return time.Since(t0)
}
