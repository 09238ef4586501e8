package jobs

// Config sizes a Manager. New code configures a Manager with functional
// options (WithWorkers, WithStore, …); Config remains the value they
// collectively build, exposed by Manager.Config for health snapshots.
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
// Config plus the three seams (store, scheduler, runner), each defaulted
// when no option supplies one.
type options struct {
	cfg    Config
	store  Store
	sched  Scheduler
	runner Runner
}

// Option configures a Manager built by New.
type Option func(*options)

// WithConfig replaces the whole sizing configuration at once. Options
// applied after it override individual fields.
func WithConfig(cfg Config) Option { return func(o *options) { o.cfg = cfg } }

// WithWorkers sets the worker-pool size (ignored when WithScheduler
// supplies the scheduler).
func WithWorkers(n int) Option { return func(o *options) { o.cfg.Workers = n } }

// WithQueueDepth bounds the queue behind the running jobs (ignored when
// WithScheduler supplies the scheduler).
func WithQueueDepth(n int) Option { return func(o *options) { o.cfg.QueueDepth = n } }

// WithCacheEntries bounds the default in-memory result store (ignored
// when WithStore supplies the store).
func WithCacheEntries(n int) Option { return func(o *options) { o.cfg.CacheEntries = n } }

// WithSimWorkers sets the default per-job simulation parallelism for
// requests that do not pin options.workers.
func WithSimWorkers(n int) Option { return func(o *options) { o.cfg.SimWorkers = n } }

// WithTraceEntries bounds the ring of finished jobs and their traces.
func WithTraceEntries(n int) Option { return func(o *options) { o.cfg.TraceEntries = n } }

// WithStore persists results in s instead of the default in-memory LRU.
// The manager owns s from then on and closes it in Close.
func WithStore(s Store) Option { return func(o *options) { o.store = s } }

// WithScheduler dispatches jobs through s instead of the default bounded
// worker pool. The manager owns s and closes it in Close.
func WithScheduler(s Scheduler) Option { return func(o *options) { o.sched = s } }

// WithRunner executes jobs through r instead of the default session
// runner. Tests stub simulation with it.
func WithRunner(r Runner) Option { return func(o *options) { o.runner = r } }
