// Package nowait supplies an out-of-package spawn target for the spawnbound
// fixture: Detached is opaque, so its join is not visible to the spawner.
package nowait

// Detached runs forever with no completion signal.
func Detached() {
	for {
	}
}
