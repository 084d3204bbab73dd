package sim

import (
	"fmt"

	"charisma/internal/obs"
)

// StepFunc drives the recurring event scheduled with ScheduleEvery. After
// each firing it returns the delay until the next firing; a negative
// delay stops the recurrence. Variable-length cadences (e.g. RMAV's
// variable frames) simply return a different delay each time.
type StepFunc func(e *Engine) Time

// Engine is the frame clock: it fires one recurring event, the TDMA
// frame tick, until the step stops it. Every access decision in the
// paper's MACs happens on a frame boundary and station wakes live on the
// MAC's own timer wheel, so a run never needs a second pending event.
// The zero value is ready to use.
type Engine struct {
	now      Time
	next     Time // firing time of the pending recurrence
	executed uint64
	step     StepFunc // nil when no recurrence is pending
	ctr      obs.SimCounters
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Executed reports how many events have fired so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Obs returns the engine's counters. EngineEvents mirrors Executed and is
// synchronized here at read time, so the frame loop never maintains a
// duplicate count. It must only be read from the goroutine driving the
// engine, or after it has quiesced.
func (e *Engine) Obs() *obs.SimCounters {
	e.ctr.EngineEvents = e.executed
	return &e.ctr
}

// ScheduleEvery registers the recurring event: it first fires at absolute
// time start and thereafter re-fires after whatever delay step returns,
// until step returns a negative delay. A nil step, a start before Now
// (which would reorder causality) and a second recurrence while one is
// pending are programming errors and panic.
func (e *Engine) ScheduleEvery(start Time, step StepFunc) {
	if step == nil {
		panic("sim: ScheduleEvery called with nil step")
	}
	if start < e.now {
		panic(fmt.Sprintf("sim: ScheduleEvery at %v before now %v", start, e.now))
	}
	if e.step != nil {
		panic("sim: ScheduleEvery while a recurrence is pending")
	}
	e.next, e.step = start, step
}

// Run fires the pending recurrence until its step returns a negative
// delay. The clock stays at the last firing.
func (e *Engine) Run() {
	for e.step != nil {
		e.now = e.next
		e.executed++
		delay := e.step(e)
		if delay < 0 {
			e.step = nil
			return
		}
		e.next = e.now + delay
	}
}

// Reset rewinds the engine to its zero state and drops any pending
// recurrence, so the replication arena reuses one engine across runs.
func (e *Engine) Reset() {
	e.now, e.next, e.executed, e.step = 0, 0, 0, nil
}
