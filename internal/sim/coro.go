//go:build go1.23

package sim

import "iter"

// start binds p to a fresh coroutine running p.run. iter.Pull resumes it
// with runtime.coroswitch, which hands the thread straight to the coroutine
// and back without going through the Go scheduler. This is the only go1.23
// dependency in the module, so the build tag keeps the module's go line at
// 1.22 while this file gets the newer language version.
func (p *Proc) start() {
	p.next, p.stop = iter.Pull(p.run)
}
