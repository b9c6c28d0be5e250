package gpusim

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Device is one named entry of the device registry: a DeviceConfig plus
// the name reports and CLIs refer to it by.
type Device struct {
	Name        string
	Description string
	Config      DeviceConfig
}

// MinSPPC returns the V100 hardware configuration with the MinSP-PC
// independent-thread-scheduling policy in place of the IPDOM stack. It
// deliberately shares every other constant with V100 so that comparing the
// two isolates the divergence-management axis.
func MinSPPC() DeviceConfig {
	cfg := V100()
	cfg.Policy = PolicyMinSPPC
	return cfg
}

// Vortex returns a configuration loosely modelled after a Vortex-class
// RISC-V GPGPU: 16-wide warps, a handful of small cores at FPGA-like
// clocks, a 4 KiB instruction cache, in-order lockstep issue (no ITS
// overlap), and the decoupled split/join divergence policy.
func Vortex() DeviceConfig {
	return DeviceConfig{
		WarpSize:          16,
		NumSMs:            16,
		ClockGHz:          0.25,
		MemLoadLatency:    100,
		StallExposure:     0.5,
		MemPerTransaction: 4,
		SegmentBytes:      32,
		ICacheLineInstrs:  8,
		ICacheLines:       64, // 64 lines * 8 instrs * 8 B = 4 KiB
		ICacheMissCycles:  10,
		ITSOverlap:        0,
		Policy:            PolicyVortex,
	}
}

// Devices returns the registry in canonical (report) order.
func Devices() []Device {
	return []Device{
		{
			Name:        "V100",
			Description: "NVIDIA V100-like: 32-wide warps, IPDOM reconvergence stack, 12 KiB icache",
			Config:      V100(),
		},
		{
			Name:        "MinSPPC",
			Description: "V100 hardware with MinSP-PC independent thread scheduling and convergence barriers",
			Config:      MinSPPC(),
		},
		{
			Name:        "Vortex",
			Description: "Vortex-like RISC-V GPGPU: 16-wide warps, decoupled split/join, 4 KiB icache",
			Config:      Vortex(),
		},
	}
}

// DeviceNames returns the registry names in canonical order.
func DeviceNames() []string {
	devs := Devices()
	names := make([]string, len(devs))
	for i, d := range devs {
		names[i] = d.Name
	}
	return names
}

// DeviceByName looks a device up by its registry name (case-insensitive).
func DeviceByName(name string) (Device, bool) {
	for _, d := range Devices() {
		if strings.EqualFold(d.Name, name) {
			return d, true
		}
	}
	return Device{}, false
}

// ParseDevice resolves a CLI device spec: a registry name, optionally
// followed by ":" and comma-separated field overrides —
//
//	V100
//	MinSPPC:itsoverlap=0.5
//	Vortex:warpsize=8,icachelines=32,policy=ipdom
//
// Override keys are the lower-cased DeviceConfig field names. The returned
// display name is the registry name for a plain spec and the full spec
// when overrides are present, so reports always say what actually ran.
func ParseDevice(spec string) (DeviceConfig, string, error) {
	name, overrides, hasOv := strings.Cut(spec, ":")
	name = strings.TrimSpace(name)
	dev, ok := DeviceByName(name)
	if !ok {
		return DeviceConfig{}, "", fmt.Errorf("gpusim: unknown device %q (want one of %s)",
			name, strings.Join(DeviceNames(), ", "))
	}
	cfg := dev.Config
	if !hasOv || strings.TrimSpace(overrides) == "" {
		return cfg, dev.Name, nil
	}
	for _, kv := range strings.Split(overrides, ",") {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return DeviceConfig{}, "", fmt.Errorf("gpusim: device override %q: want key=value", kv)
		}
		key = strings.ToLower(strings.TrimSpace(key))
		val = strings.TrimSpace(val)
		if err := setOverride(&cfg, key, val); err != nil {
			return DeviceConfig{}, "", err
		}
	}
	if err := cfg.Validate(); err != nil {
		return DeviceConfig{}, "", err
	}
	return cfg, dev.Name + ":" + overrides, nil
}

// maxICacheLines caps the icache capacity a device spec may ask for: the
// LRU model allocates per line, and specs arrive from CLIs and uud requests.
const maxICacheLines = 1 << 20

// Validate reports whether cfg describes a machine the simulator can run:
// the fields it divides by or sizes arrays from must be positive and
// bounded, costs and latencies non-negative, fractions within [0, 1].
// ParseDevice applies it to every spec with overrides, so a bad value is an
// error at the CLI (and a 400 from uud) instead of a divide-by-zero or
// makeslice panic inside a run. Every registry device passes.
func (cfg DeviceConfig) Validate() error {
	bad := func(field string, v any, want string) error {
		return fmt.Errorf("gpusim: %s %v out of range (want %s)", field, v, want)
	}
	nonNeg := func(v float64) bool { return v >= 0 && !math.IsInf(v, 0) } // false for NaN
	switch {
	case cfg.WarpSize < 1 || cfg.WarpSize > 32:
		return bad("warpsize", cfg.WarpSize, "[1, 32]")
	case cfg.NumSMs < 1:
		return bad("numsms", cfg.NumSMs, ">= 1")
	case !nonNeg(cfg.ClockGHz) || cfg.ClockGHz == 0:
		return bad("clockghz", cfg.ClockGHz, "> 0")
	case !nonNeg(cfg.MemLoadLatency):
		return bad("memloadlatency", cfg.MemLoadLatency, ">= 0")
	case !(cfg.StallExposure >= 0 && cfg.StallExposure <= 1):
		return bad("stallexposure", cfg.StallExposure, "[0, 1]")
	case cfg.MemPerTransaction < 0:
		return bad("mempertransaction", cfg.MemPerTransaction, ">= 0")
	case cfg.SegmentBytes < 1:
		return bad("segmentbytes", cfg.SegmentBytes, ">= 1")
	case cfg.ICacheLineInstrs < 1:
		return bad("icachelineinstrs", cfg.ICacheLineInstrs, ">= 1")
	case cfg.ICacheLines < 1 || cfg.ICacheLines > maxICacheLines:
		return bad("icachelines", cfg.ICacheLines, fmt.Sprintf("[1, %d]", maxICacheLines))
	case cfg.ICacheMissCycles < 0:
		return bad("icachemisscycles", cfg.ICacheMissCycles, ">= 0")
	case !(cfg.ITSOverlap >= 0 && cfg.ITSOverlap <= 1):
		return bad("itsoverlap", cfg.ITSOverlap, "[0, 1]")
	case cfg.MaxWarpSteps < 0:
		return bad("maxwarpsteps", cfg.MaxWarpSteps, ">= 0")
	}
	return nil
}

func setOverride(cfg *DeviceConfig, key, val string) error {
	asInt := func(dst *int) error {
		v, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("gpusim: device override %s=%q: %v", key, val, err)
		}
		*dst = v
		return nil
	}
	asInt64 := func(dst *int64) error {
		v, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return fmt.Errorf("gpusim: device override %s=%q: %v", key, val, err)
		}
		*dst = v
		return nil
	}
	asFloat := func(dst *float64) error {
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return fmt.Errorf("gpusim: device override %s=%q: %v", key, val, err)
		}
		*dst = v
		return nil
	}
	switch key {
	case "warpsize":
		return asInt(&cfg.WarpSize)
	case "numsms":
		return asInt(&cfg.NumSMs)
	case "clockghz":
		return asFloat(&cfg.ClockGHz)
	case "memloadlatency":
		return asFloat(&cfg.MemLoadLatency)
	case "stallexposure":
		return asFloat(&cfg.StallExposure)
	case "mempertransaction":
		return asInt64(&cfg.MemPerTransaction)
	case "segmentbytes":
		return asInt64(&cfg.SegmentBytes)
	case "icachelineinstrs":
		return asInt(&cfg.ICacheLineInstrs)
	case "icachelines":
		return asInt(&cfg.ICacheLines)
	case "icachemisscycles":
		return asInt64(&cfg.ICacheMissCycles)
	case "itsoverlap":
		return asFloat(&cfg.ITSOverlap)
	case "maxwarpsteps":
		return asInt64(&cfg.MaxWarpSteps)
	case "policy":
		p, err := parsePolicy(val)
		if err != nil {
			return err
		}
		cfg.Policy = p
		return nil
	}
	return fmt.Errorf("gpusim: unknown device override key %q", key)
}
