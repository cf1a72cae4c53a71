package obs

import (
	"strconv"
	"testing"
)

// BenchmarkSamplerSample is one sampling round over a registry shaped
// like a consolidated host's: 8 VMs of 4 vCPUs, each vCPU with four
// runstate counters and a preemption count, and per VM two gauges and
// a latency histogram (184 entries, 208 series).
func BenchmarkSamplerSample(b *testing.B) {
	r := NewRegistry()
	var n int64
	for vm := 0; vm < 8; vm++ {
		name := "vm" + strconv.Itoa(vm)
		for cpu := 0; cpu < 4; cpu++ {
			l := Labels{Sub: "hv", VM: name, CPU: name + "/v" + strconv.Itoa(cpu)}
			for _, kind := range []string{"running", "runnable", "blocked", "offline"} {
				l.Kind = kind
				r.CounterFunc("hv_runstate_ns", l, Field(&n))
			}
			l.Kind = ""
			r.CounterFunc("hv_preempt_total", l, Field(&n))
		}
		l := Labels{Sub: "guest", VM: name}
		r.GaugeFunc("guest_runnable", l, func() float64 { return 1 })
		r.GaugeFunc("guest_load", l, func() float64 { return 2 })
		r.Histogram("hv_sa_ack_ns", l).Add(20000)
	}
	s := NewSampler(r, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%256 == 0 {
			for _, se := range s.series {
				se.Points = se.Points[:0]
			}
		}
		s.Sample()
	}
}
