package pipeline

import "prodigy/internal/timeseries"

// BuildArenas returns the arenas the builder holds between builds.
func (b *DatasetBuilder) BuildArenas() []*timeseries.Arena {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.arenas
}
