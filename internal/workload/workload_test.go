package workload

import (
	"fmt"
	"testing"
	"testing/quick"

	"slotsel/internal/randx"
)

func TestDefaultMixValid(t *testing.T) {
	if err := DefaultMix().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadMixes(t *testing.T) {
	cases := []func(*JobMix){
		func(m *JobMix) { m.TasksMin = 0 },
		func(m *JobMix) { m.TasksMax = m.TasksMin - 1 },
		func(m *JobMix) { m.VolumeMin = 0 },
		func(m *JobMix) { m.VolumeMax = m.VolumeMin - 1 },
		func(m *JobMix) { m.PriceCapMin = 0 },
		func(m *JobMix) { m.PriceCapMax = m.PriceCapMin - 1 },
		func(m *JobMix) { m.ReservationPerf = 0 },
	}
	for i, mutate := range cases {
		m := DefaultMix()
		mutate(&m)
		if m.Validate() == nil {
			t.Errorf("case %d: invalid mix accepted", i)
		}
	}
}

func TestJobWithinMix(t *testing.T) {
	mix := DefaultMix()
	check := func(seed uint64) bool {
		rng := randx.New(seed)
		j := mix.Job(rng, 1)
		if j.Request.Validate() != nil {
			return false
		}
		if j.Request.TaskCount < mix.TasksMin || j.Request.TaskCount > mix.TasksMax {
			return false
		}
		if j.Request.Volume < float64(mix.VolumeMin) || j.Request.Volume > float64(mix.VolumeMax) {
			return false
		}
		if j.Priority < mix.PriorityMin || j.Priority > mix.PriorityMax {
			return false
		}
		// Budget bounds from the S = F*t*n formula.
		lo := mix.PriceCapMin * j.Request.Volume / mix.ReservationPerf * float64(j.Request.TaskCount)
		hi := mix.PriceCapMax * j.Request.Volume / mix.ReservationPerf * float64(j.Request.TaskCount)
		return j.Request.MaxCost >= lo-1e-9 && j.Request.MaxCost <= hi+1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBatchIDsAndSize(t *testing.T) {
	b := DefaultMix().Batch(randx.New(1), 7)
	if len(b.Jobs) != 7 {
		t.Fatalf("%d jobs, want 7", len(b.Jobs))
	}
	for i, j := range b.Jobs {
		if j.ID != i+1 {
			t.Errorf("job %d has ID %d", i, j.ID)
		}
	}
}

func TestFixedPriorityMix(t *testing.T) {
	m := DefaultMix()
	m.PriorityMin, m.PriorityMax = 5, 5
	j := m.Job(randx.New(2), 1)
	if j.Priority != 5 {
		t.Errorf("priority %d, want 5", j.Priority)
	}
}

// Validate reports structural problems with the mix.
func (m JobMix) Validate() error {
	if m.TasksMin <= 0 || m.TasksMax < m.TasksMin {
		return fmt.Errorf("workload: invalid task range [%d, %d]", m.TasksMin, m.TasksMax)
	}
	if m.VolumeMin <= 0 || m.VolumeMax < m.VolumeMin {
		return fmt.Errorf("workload: invalid volume range [%d, %d]", m.VolumeMin, m.VolumeMax)
	}
	if m.PriceCapMin <= 0 || m.PriceCapMax < m.PriceCapMin {
		return fmt.Errorf("workload: invalid price cap range [%g, %g]", m.PriceCapMin, m.PriceCapMax)
	}
	if m.ReservationPerf <= 0 {
		return fmt.Errorf("workload: invalid reservation performance %g", m.ReservationPerf)
	}
	return nil
}
