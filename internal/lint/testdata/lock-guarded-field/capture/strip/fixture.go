// Package strip is a striplint fixture: its import path ends in
// strip, so the lock-discipline rules apply. It exercises goroutine
// literals capturing mutex-guarded fields: the launcher's lock does
// not outlive the launch, so only a lock taken inside the literal
// counts.
package strip

import "sync"

type Pool struct {
	mu   sync.Mutex
	jobs []int
}

func (p *Pool) GoodLaunch() {
	go func() {
		p.mu.Lock()
		defer p.mu.Unlock()
		p.jobs = append(p.jobs, 1)
	}()
}

func (p *Pool) BadLaunch() {
	go func() {
		p.jobs = append(p.jobs, 1) // want "goroutine launched in BadLaunch captures guarded field p.jobs"
	}()
}

// BadLaunchUnderLock shows the launcher's own lock proves nothing:
// the goroutine runs after the deferred unlock releases it.
func (p *Pool) BadLaunchUnderLock() {
	p.mu.Lock()
	defer p.mu.Unlock()
	go func() {
		p.jobs = nil // want "goroutine launched in BadLaunchUnderLock captures guarded field p.jobs"
	}()
}

// resetLocked follows the caller-holds-the-lock convention, so its own
// body is exempt — but the literal it launches is not: the goroutine
// runs after the caller's lock is released.
func (p *Pool) resetLocked() {
	p.jobs = p.jobs[:0]
	go func() {
		p.jobs = nil // want "goroutine launched in resetLocked captures guarded field p.jobs"
	}()
}
