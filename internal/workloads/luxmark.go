package workloads

// LuxMark-style device scoring. In Section V-E the paper compares the
// raw performance of its two test GPUs with LuxMark, a cross-platform
// rendering benchmark (HD 4000: 269, HD 4600: 351), to establish that
// the architectures genuinely differ before validating selections across
// them. This file provides the equivalent: a fixed ray-tracing-flavoured
// rendering workload whose score is samples rendered per modelled second.

import (
	"fmt"

	"gtpin/internal/asm"
	"gtpin/internal/cl"
	"gtpin/internal/cofluent"
	"gtpin/internal/device"
	"gtpin/internal/isa"
	"gtpin/internal/kernel"
	"gtpin/internal/xlate"
)

// luxScene builds the render program: a primary-ray pass, a shading
// pass, and a tone-map pass over a fixed scene buffer.
func luxScene() (*kernel.Program, error) {
	return asm.Program("luxmark",
		newRaycastAO("lux_trace", isa.W16),
		newFragShade("lux_shade", isa.W16),
		newStreamScale("lux_tonemap", isa.W8))
}

// LuxMarkScore renders the benchmark scene on the given device
// configuration and ISA target and returns its score: kilo-samples per
// modelled GPU second (higher is better). The workload is fixed, so
// scores are comparable across configurations.
func LuxMarkScore(cfg device.Config, target xlate.Target) (float64, error) {
	prog, err := luxScene()
	if err != nil {
		return 0, err
	}
	dev, err := device.New(cfg)
	if err != nil {
		return 0, err
	}
	ctx := cl.NewContext(dev)
	target.Apply(ctx)
	tr := cofluent.Attach(ctx)
	h := newHost(ctx)

	const gws = 16384
	scene := h.buffer(1 << 19)
	fb := h.buffer(gws*4 + 4096)
	h.upload(scene, 881)
	p := h.build(prog)
	trace := h.kernel(p, "lux_trace")
	shade := h.kernel(p, "lux_shade")
	tone := h.kernel(p, "lux_tonemap")

	const frames = 24
	for f := 0; f < frames; f++ {
		h.dispatch(trace, gws, []uint32{24}, scene, fb)
		h.dispatch(shade, gws, []uint32{12, uint32(200 + f%8)}, scene, fb)
		h.dispatch(tone, gws, []uint32{1, 3, 9}, fb, fb)
		h.finish()
	}
	if err := h.done(); err != nil {
		return 0, fmt.Errorf("luxmark: %w", err)
	}
	samples := float64(frames * gws)
	seconds := tr.TotalKernelTimeNs() * 1e-9
	if seconds <= 0 {
		return 0, fmt.Errorf("luxmark: no time measured")
	}
	return samples / seconds / 1000, nil
}
