package fleet

// unmarkedStripes lists the stripes, as partition·registryStripes + stripe,
// that hold a queued job while their bit in the partition's dirty mask is
// clear. Outside a tick's collect there are none: a tick that skipped such
// a stripe would leave its jobs unscored.
func (m *Monitor) unmarkedStripes() []int {
	var out []int
	for i, p := range m.parts {
		for k, st := range p.stripes {
			st.mu.Lock()
			if len(st.queue) > 0 && p.dirty.Load()&st.bit == 0 {
				out = append(out, i*registryStripes+k)
			}
			st.mu.Unlock()
		}
	}
	return out
}
