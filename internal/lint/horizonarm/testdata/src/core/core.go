// Package core is the horizonarm fixture for the internal/core rules:
// exported entry points reaching EnqueueRead/EnqueueWrite need
// notifyCtrl in their call path.
package core

// Controller stands in for memctrl.Controller.
type Controller struct{ q []int }

// EnqueueRead mimics the real enqueue signature shape.
func (c *Controller) EnqueueRead(a int) bool { c.q = append(c.q, a); return true }

// EnqueueWrite mimics the real enqueue signature shape.
func (c *Controller) EnqueueWrite(a int) bool { c.q = append(c.q, a); return true }

// System stands in for core.System.
type System struct {
	ctrl *Controller
}

func (s *System) notifyCtrl(ch int) {}

// Good discharges the enqueue obligation through a helper.
func (s *System) Good(a int) {
	s.enqueue(a)
}

func (s *System) enqueue(a int) {
	s.ctrl.EnqueueRead(a)
	s.notifyCtrl(0)
}

// Bad enqueues without ever re-arming.
func (s *System) Bad(a int) { // want `Bad reaches Controller.EnqueueRead/EnqueueWrite but never re-arms`
	s.ctrl.EnqueueWrite(a)
}

// GoodClosure shows function-literal bodies count toward the
// enclosing entry point's closure.
func (s *System) GoodClosure(a int) {
	do := func() {
		s.ctrl.EnqueueRead(a)
		s.notifyCtrl(0)
	}
	do()
}

// ReadOnly has no obligation.
func (s *System) ReadOnly() int { return len(s.ctrl.q) }

// Justified demonstrates the escape hatch.
//
//mclint:allow horizonarm -- fixture: caller contractually re-arms
func (s *System) Justified(a int) {
	s.ctrl.EnqueueWrite(a)
}
