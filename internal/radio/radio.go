// Package radio models the low-power transmitter of a battery-less sensor
// node. An IoT recognition node is only useful if results leave the chip;
// the radio is typically the largest single consumer per event, so its
// bursts dominate the storage capacitor's transient behaviour. The model is
// the standard startup + payload decomposition:
//
//	E_packet = P_tx*(T_startup + bits/bitrate)
//
// and packet schedules compile into an auxiliary load function for the
// transient simulator (circuit.Config.AuxLoad).
package radio

import (
	"errors"
	"fmt"
	"sort"
)

// Errors returned by this package.
var (
	// ErrBadPacket indicates an empty or negatively sized packet.
	ErrBadPacket = errors.New("radio: invalid packet")
)

// Radio is a transmitter model. Construct with New.
type Radio struct {
	txPower  float64 // active transmit power draw (W)
	startup  float64 // oscillator/PLL settling time per packet (s)
	bitrate  float64 // payload bitrate (bit/s)
	overhead int     // protocol overhead per packet (bytes): preamble, CRC
}

// New returns a BLE-advertiser-class radio: ~9 mW while transmitting,
// 250 us startup, 1 Mbit/s, 14 bytes of protocol overhead.
func New() *Radio {
	return &Radio{
		txPower:  9e-3,
		startup:  250e-6,
		bitrate:  1e6,
		overhead: 14,
	}
}

// PacketAirtime returns the on-air duration (s) of a payload of the given
// size (bytes), including startup and protocol overhead.
func (r *Radio) PacketAirtime(payloadBytes int) (float64, error) {
	if payloadBytes < 0 {
		return 0, fmt.Errorf("%w: %d bytes", ErrBadPacket, payloadBytes)
	}
	bits := float64(8 * (payloadBytes + r.overhead))
	return r.startup + bits/r.bitrate, nil
}

// Packet is one scheduled transmission.
type Packet struct {
	Time         float64 // transmit start (s)
	PayloadBytes int
}

// Schedule is a compiled transmission plan usable as a simulator auxiliary
// load. Build with NewSchedule.
type Schedule struct {
	radio  *Radio
	starts []float64
	ends   []float64
	total  float64 // total energy (J)
}

// NewSchedule compiles packets (any order) into a schedule. Overlapping
// packets are legal; their draws add.
func (r *Radio) NewSchedule(packets []Packet) (*Schedule, error) {
	s := &Schedule{radio: r}
	sorted := append([]Packet(nil), packets...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Time < sorted[j].Time })
	for _, p := range sorted {
		airtime, err := r.PacketAirtime(p.PayloadBytes)
		if err != nil {
			return nil, err
		}
		s.starts = append(s.starts, p.Time)
		s.ends = append(s.ends, p.Time+airtime)
		s.total += r.txPower * airtime
	}
	return s, nil
}

// TotalEnergy returns the schedule's total transmit energy (J).
func (s *Schedule) TotalEnergy() float64 { return s.total }

// Load returns the radio's power draw (W) at time t. The method value
// (s.Load) plugs into circuit.Config.AuxLoad.
func (s *Schedule) Load(t float64) float64 {
	// Packets are sorted by start; find those covering t. Schedules are
	// short (tens of packets), so a linear scan from the first candidate is
	// fine and allocation-free.
	var draw float64
	for i, start := range s.starts {
		if start > t {
			break
		}
		if t < s.ends[i] {
			draw += s.radio.txPower
		}
	}
	return draw
}
