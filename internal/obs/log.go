package obs

import "log/slog"

// Logger returns a structured logger tagged with the component name,
// built on slog.Default(), which routes through the log package — so
// existing -logtostderr style setups and test log capture keep working.
// Packages add job/fleet/trace IDs per call site via With or args.
func Logger(component string) *slog.Logger {
	return slog.Default().With("component", component)
}
