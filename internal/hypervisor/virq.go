package hypervisor

import "fmt"

// IRQ identifies a virtual interrupt line delivered to a guest vCPU.
type IRQ int

const (
	// IRQTimer is the per-vCPU one-shot timer interrupt.
	IRQTimer IRQ = iota + 1
	// IRQSAUpcall is the scheduler-activation upcall added by IRS
	// (VIRQ_SA_UPCALL in the paper).
	IRQSAUpcall
	// IRQKick is an event-channel notification / reschedule IPI from a
	// sibling vCPU, used to wake an idle vCPU after task migration.
	IRQKick
)

func (i IRQ) String() string {
	switch i {
	case IRQTimer:
		return "timer"
	case IRQSAUpcall:
		return "sa-upcall"
	case IRQKick:
		return "kick"
	default:
		return fmt.Sprintf("IRQ(%d)", int(i))
	}
}

// SendIRQ delivers irq to v. A running vCPU takes it immediately; a
// descheduled vCPU accumulates it as pending (taken on resume); a
// blocked vCPU is woken first. Event-channel kicks (IRQKick) pass
// through the fault injector and may be dropped, delayed, or
// duplicated — the lost-wakeup pathology.
func (h *Hypervisor) SendIRQ(v *VCPU, irq IRQ) {
	if irq == IRQKick {
		dropped, delays := h.cfg.Faults.WakeDelivery()
		if dropped {
			return
		}
		if delays != nil {
			for _, d := range delays {
				if d == 0 {
					h.deliverIRQ(v, irq)
					continue
				}
				h.eng.After(d, func() {
					if v.state != StateOffline {
						h.deliverIRQ(v, irq)
					}
				})
			}
			return
		}
	}
	h.deliverIRQ(v, irq)
}

func (h *Hypervisor) deliverIRQ(v *VCPU, irq IRQ) {
	switch v.state {
	case StateRunning:
		v.ctx.TakeIRQ(irq)
	case StateBlocked:
		h.pendIRQ(v, irq)
		h.WakeVCPU(v)
	default:
		h.pendIRQ(v, irq)
	}
}

func (h *Hypervisor) pendIRQ(v *VCPU, irq IRQ) {
	for _, p := range v.pendingIRQ {
		if p == irq {
			return // level-triggered: collapse duplicates
		}
	}
	v.pendingIRQ = append(v.pendingIRQ, irq)
}

// ClaimPendingIRQs appends the interrupts that arrived while the vCPU
// was descheduled to dst and clears them. The guest calls this first
// thing on resume. The claimed list is the caller's copy, so interrupts
// raised while it is being handled pend afresh in v's list, whose
// backing array is reused from claim to claim.
func (h *Hypervisor) ClaimPendingIRQs(v *VCPU, dst []IRQ) []IRQ {
	dst = append(dst, v.pendingIRQ...)
	v.pendingIRQ = v.pendingIRQ[:0]
	return dst
}
