package radio

import (
	"errors"
	"math"
	"testing"

	"repro/internal/cap"
	"repro/internal/circuit"
	"repro/internal/cpu"
	"repro/internal/pv"
	"repro/internal/reg"
)

func TestPacketAirtimeAndEnergy(t *testing.T) {
	r := New() // 9 mW, 250 us startup, 1 Mb/s, 14 B overhead
	airtime, err := r.PacketAirtime(50)
	if err != nil {
		t.Fatal(err)
	}
	want := 250e-6 + 8*64/1e6
	if math.Abs(airtime-want) > 1e-12 {
		t.Errorf("airtime = %g, want %g", airtime, want)
	}
	s, err := r.NewSchedule([]Packet{{PayloadBytes: 50}})
	if err != nil {
		t.Fatal(err)
	}
	if e := s.TotalEnergy(); math.Abs(e-9e-3*want) > 1e-15 {
		t.Errorf("energy = %g", e)
	}
	if _, err := r.PacketAirtime(-1); !errors.Is(err, ErrBadPacket) {
		t.Errorf("negative payload: %v", err)
	}
}

func TestOptions(t *testing.T) {
	r := &Radio{txPower: 20e-3, bitrate: 2e6}
	airtime, err := r.PacketAirtime(100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(airtime-8*100/2e6) > 1e-15 {
		t.Errorf("airtime = %g", airtime)
	}
	s, _ := r.NewSchedule([]Packet{{PayloadBytes: 100}})
	if e := s.TotalEnergy(); math.Abs(e-20e-3*airtime) > 1e-15 {
		t.Errorf("energy = %g", e)
	}
}

func TestScheduleLoad(t *testing.T) {
	r := &Radio{txPower: 9e-3, bitrate: 8e3} // 1 B = 1 ms
	s, err := r.NewSchedule([]Packet{
		{Time: 10e-3, PayloadBytes: 5}, // 10-15 ms
		{Time: 30e-3, PayloadBytes: 2}, // 30-32 ms
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Load(5e-3); got != 0 {
		t.Errorf("idle draw = %g", got)
	}
	if got := s.Load(12e-3); got != 9e-3 {
		t.Errorf("active draw = %g, want 9 mW", got)
	}
	if got := s.Load(20e-3); got != 0 {
		t.Errorf("between packets draw = %g", got)
	}
	if got := s.Load(31e-3); got != 9e-3 {
		t.Errorf("second packet draw = %g", got)
	}
	wantTotal := 9e-3 * (5e-3 + 2e-3)
	if math.Abs(s.TotalEnergy()-wantTotal) > 1e-15 {
		t.Errorf("total = %g, want %g", s.TotalEnergy(), wantTotal)
	}
}

func TestOverlappingPacketsAdd(t *testing.T) {
	r := &Radio{txPower: 9e-3, bitrate: 8e3}
	s, err := r.NewSchedule([]Packet{
		{Time: 0, PayloadBytes: 10},
		{Time: 1e-3, PayloadBytes: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Load(5e-3); math.Abs(got-18e-3) > 1e-15 {
		t.Errorf("overlapped draw = %g, want 18 mW", got)
	}
}

func TestScheduleDrivesSimulatorAuxLoad(t *testing.T) {
	// Transmit bursts must show up in the simulator's aux energy ledger and
	// dent the storage node.
	r := New()
	r.txPower = 15e-3
	var packets []Packet
	for ms := 2; ms <= 18; ms += 4 {
		packets = append(packets, Packet{Time: float64(ms) * 1e-3, PayloadBytes: 32})
	}
	sched, err := r.NewSchedule(packets)
	if err != nil {
		t.Fatal(err)
	}
	run := func(aux func(float64) float64) (*circuit.Outcome, error) {
		storage, err := cap.New(100e-6, 1.0, 2.0)
		if err != nil {
			return nil, err
		}
		sim, err := circuit.New(circuit.Config{
			Cell:       pv.NewCell(),
			Proc:       cpu.NewProcessor(),
			Reg:        reg.NewSC(),
			Cap:        storage,
			Irradiance: circuit.ConstantIrradiance(0.5),
			Controller: &circuit.FixedPoint{Supply: 0.45},
			Step:       2e-6,
			MaxTime:    20e-3,
			AuxLoad:    aux,
		})
		if err != nil {
			return nil, err
		}
		return sim.Run()
	}
	quiet, err := run(nil)
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := run(sched.Load)
	if err != nil {
		t.Fatal(err)
	}
	if quiet.EnergyAux != 0 {
		t.Errorf("quiet run has aux energy %g", quiet.EnergyAux)
	}
	if math.Abs(noisy.EnergyAux-sched.TotalEnergy())/sched.TotalEnergy() > 0.02 {
		t.Errorf("aux energy %g, schedule total %g", noisy.EnergyAux, sched.TotalEnergy())
	}
	if noisy.FinalCapVoltage >= quiet.FinalCapVoltage {
		t.Error("radio bursts did not dent the storage node")
	}
}
