package analysis

import (
	"strings"
	"testing"
)

// TestDomainHotPathFixtures pins the hot-path designations of the staged
// pipe-transfer path: TransferStaged and the staged-group callback runners
// must stay allocation-free, while the freelist-amortized construction path
// (newGroup) may allocate. It also pins that the merge-loop names of the
// removed virtual-time domain scheduler (Kernel.runMerged, Kernel.runWindow)
// are no longer designated, so a fixture defining them stays silent there.
func TestDomainHotPathFixtures(t *testing.T) {
	l := newTestLoader(t)
	fixtures := []fixture{
		{
			// Formatting in TransferStaged and string concatenation in a
			// staged-group callback runner fire; the closure in runMerged
			// does not, because runMerged is not a hot-path function.
			name:     "hotpathalloc_domains_bad",
			analyzer: "hotpathalloc",
			pkgPath:  "mpipart/internal/sim",
			src: `package sim
import "fmt"
type Time int64
type Pipe struct{ last string }
type stagedGroup struct{ tag string }
type Kernel struct{ n int }
func (pp *Pipe) TransferStaged(size int64) Time {
	pp.last = fmt.Sprintf("staged %d", size)
	return Time(size)
}
func (g *stagedGroup) runLocal() {
	g.tag = "fired:" + g.tag
}
func (k *Kernel) runMerged() {
	step := func() { k.n++ }
	step()
}
`,
			want: []string{
				"fmt.Sprintf call in scheduler hot path Pipe.TransferStaged",
				"string concatenation in scheduler hot path stagedGroup.runLocal",
			},
		},
		{
			// A clean TransferStaged is silent, newGroup is outside the hot
			// set, and runWindow is no longer designated.
			name:     "hotpathalloc_domains_ok",
			analyzer: "hotpathalloc",
			pkgPath:  "mpipart/internal/sim",
			src: `package sim
type Time int64
type stagedGroup struct {
	local []func()
	next  *stagedGroup
}
type Pipe struct {
	pend *stagedGroup
	free *stagedGroup
}
type Kernel struct {
	now Time
	cur int
}
func (pp *Pipe) TransferStaged(size int64, onLocal func()) Time {
	g := pp.pend
	if g == nil {
		g = pp.newGroup()
		pp.pend = g
	}
	g.local = append(g.local, onLocal)
	return Time(size)
}
func (pp *Pipe) newGroup() *stagedGroup {
	g := pp.free
	if g == nil {
		g = &stagedGroup{local: []func(){}}
	}
	pp.free = g.next
	return g
}
func (k *Kernel) runWindow(end Time) {
	if k.cur < 0 {
		panic("sim: bad window " + "?")
	}
	step := func() { k.now = end }
	if k.now < end {
		step()
	}
}
`,
		},
	}
	for _, fx := range fixtures {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			diags := runFixture(t, l, fx)
			if len(diags) != len(fx.want) {
				t.Fatalf("got %d findings, want %d:\n%s", len(diags), len(fx.want), renderDiags(diags))
			}
			for i, want := range fx.want {
				if !strings.Contains(diags[i].Message, want) {
					t.Errorf("finding %d = %q, want substring %q", i, diags[i].Message, want)
				}
			}
		})
	}
}
