package jobs

// Config sizes a Manager. New takes it through WithConfig, and
// Manager.Config reports it back for health snapshots.
type Config struct {
	// Workers is the worker-pool size: how many jobs simulate
	// concurrently (default 2).
	Workers int
	// QueueDepth bounds the number of jobs waiting behind the running
	// ones; a full queue makes Submit return ErrQueueFull (default 16).
	QueueDepth int
	// CacheEntries bounds the content-addressed result cache
	// (default 128). Ignored when WithStore supplies the store.
	CacheEntries int
	// SimWorkers, when positive, is the default per-job simulation
	// parallelism for requests that do not set options.workers. Zero
	// leaves the library default (GOMAXPROCS) — sensible for Workers=1,
	// oversubscribed otherwise.
	SimWorkers int
	// TraceEntries bounds the ring of finished jobs, kept with their
	// results and traces once they leave the job table (default 64).
	TraceEntries int
}

func (c Config) normalize() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 128
	}
	if c.TraceEntries <= 0 {
		c.TraceEntries = 64
	}
	return c
}

// options collects everything New assembles a Manager from: the sizing
// Config plus the two seams (store, runner), each defaulted when no
// option supplies one.
type options struct {
	cfg    Config
	store  Store
	runner Runner
}

// Option configures a Manager built by New.
type Option func(*options)

// WithConfig sets the sizing configuration; zero fields take their
// defaults.
func WithConfig(cfg Config) Option { return func(o *options) { o.cfg = cfg } }

// WithStore persists results in s instead of the default in-memory LRU.
// The manager owns s from then on and closes it in Close.
func WithStore(s Store) Option { return func(o *options) { o.store = s } }

// WithRunner executes jobs through r instead of the default session
// runner. Tests stub simulation with it.
func WithRunner(r Runner) Option { return func(o *options) { o.runner = r } }
