// Package device models the latency of hardware this host does not have.
//
// A Device charges operations to a Model, by accounting only or by
// sleeping; cloudsim's WAN link is one. Slow puts a Model in front of a
// hashdb.Store, for tests and experiments that need an index device slower
// than this host's. The index itself models nothing: hashdb counts the pages
// its file moves, and its latency is the file's.
package device

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Model describes a storage device's latency profile.
type Model struct {
	// Name identifies the profile in logs and benchmark output.
	Name string
	// ReadBase is the fixed cost of one random read (seek + command).
	ReadBase time.Duration
	// WriteBase is the fixed cost of one random write.
	WriteBase time.Duration
	// PerByte is the transfer cost per byte moved (1 / bandwidth).
	PerByte time.Duration
}

// ReadLatency returns the modeled duration of one random read of n bytes.
func (m Model) ReadLatency(n int) time.Duration {
	return m.ReadBase + time.Duration(n)*m.PerByte
}

// WriteLatency returns the modeled duration of one random write of n bytes.
func (m Model) WriteLatency(n int) time.Duration {
	return m.WriteBase + time.Duration(n)*m.PerByte
}

// Mode selects how a Device realizes modeled latency.
type Mode int

const (
	// Account only accumulates modeled time; callers never block.
	// cloudsim's default network uses this mode.
	Account Mode = iota + 1
	// Sleep blocks the calling goroutine for the modeled duration, so a
	// live cluster behaves as if the device were attached.
	Sleep
)

// Device charges I/O operations against a Model and keeps usage statistics.
// A Device is safe for concurrent use; in Sleep mode concurrent operations
// overlap, mimicking a device with internal parallelism (NCQ / flash
// channels).
type Device struct {
	model Model
	mode  Mode

	reads      atomic.Int64
	writes     atomic.Int64
	readBytes  atomic.Int64
	writeBytes atomic.Int64
	busy       atomic.Int64 // nanoseconds of modeled device time
}

// New creates a Device with the given latency model and mode.
func New(model Model, mode Mode) *Device {
	if mode != Account && mode != Sleep {
		mode = Account
	}
	return &Device{model: model, mode: mode}
}

// Read charges one random read of n bytes and returns the modeled latency.
func (d *Device) Read(n int) time.Duration {
	lat := d.model.ReadLatency(n)
	d.reads.Add(1)
	d.readBytes.Add(int64(n))
	d.charge(lat)
	return lat
}

// Write charges one random write of n bytes and returns the modeled latency.
func (d *Device) Write(n int) time.Duration {
	lat := d.model.WriteLatency(n)
	d.writes.Add(1)
	d.writeBytes.Add(int64(n))
	d.charge(lat)
	return lat
}

func (d *Device) charge(lat time.Duration) {
	d.busy.Add(int64(lat))
	if d.mode == Sleep && lat > 0 {
		time.Sleep(lat)
	}
}

// Stats is a snapshot of a Device's usage counters.
type Stats struct {
	Reads      int64
	Writes     int64
	ReadBytes  int64
	WriteBytes int64
	// Busy is the total modeled device time across all operations.
	Busy time.Duration
}

// Stats returns a snapshot of the device's counters.
func (d *Device) Stats() Stats {
	return Stats{
		Reads:      d.reads.Load(),
		Writes:     d.writes.Load(),
		ReadBytes:  d.readBytes.Load(),
		WriteBytes: d.writeBytes.Load(),
		Busy:       time.Duration(d.busy.Load()),
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("reads=%d writes=%d readB=%d writeB=%d busy=%v",
		s.Reads, s.Writes, s.ReadBytes, s.WriteBytes, s.Busy)
}
