package grid

import (
	"fmt"
	"io"
	"sync"
)

// Job is one unit of work submitted to the cycle-sharing pool, in the
// mould of a Condor job: it runs on some machine and performs its I/O
// through the interposed library handed to it.
type Job struct {
	// Name identifies the job in results.
	Name string
	// Run is the job body. It receives the interposed I/O library the
	// execution machine preloads (Figure 6) and returns the job error.
	Run func(lib *IOLib) error
}

// JobResult reports one completed job.
type JobResult struct {
	Job     string
	Machine int
	Err     error
}

// Scheduler is a minimal stand-in for the Condor matchmaker: jobs queue
// up and a fixed set of worker machines executes them, each worker
// preloading the shared I/O library. It exists so examples and tests
// can exercise the full submit→execute→redirected-I/O path of §6.4
// in-process.
type Scheduler struct {
	lib      *IOLib
	machines int

	mu      sync.Mutex
	queue   []Job
	results []JobResult
	running bool
}

// NewScheduler builds a scheduler over the given number of machines,
// all mounting the same storage pool through lib.
func NewScheduler(lib *IOLib, machines int) *Scheduler {
	if machines < 1 {
		machines = 1
	}
	return &Scheduler{lib: lib, machines: machines}
}

// Submit queues a job.
func (s *Scheduler) Submit(j Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.queue = append(s.queue, j)
}

// Queued returns the number of jobs awaiting execution.
func (s *Scheduler) Queued() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// Drain runs all queued jobs across the machine pool and returns their
// results in completion order.
func (s *Scheduler) Drain() []JobResult {
	s.mu.Lock()
	if s.running {
		s.mu.Unlock()
		return nil
	}
	s.running = true
	jobs := s.queue
	s.queue = nil
	s.results = s.results[:0]
	s.mu.Unlock()

	work := make(chan int)
	var wg sync.WaitGroup
	for m := 0; m < s.machines; m++ {
		wg.Add(1)
		go func(machine int) {
			defer wg.Done()
			for ji := range work {
				err := func() (err error) {
					defer func() {
						if r := recover(); r != nil {
							err = fmt.Errorf("grid: job %q panicked: %v", jobs[ji].Name, r)
						}
					}()
					return jobs[ji].Run(s.lib)
				}()
				s.mu.Lock()
				s.results = append(s.results, JobResult{Job: jobs[ji].Name, Machine: machine, Err: err})
				s.mu.Unlock()
			}
		}(m)
	}
	for ji := range jobs {
		work <- ji
	}
	close(work)
	wg.Wait()

	s.mu.Lock()
	defer s.mu.Unlock()
	s.running = false
	return append([]JobResult(nil), s.results...)
}

// BigCopyJob builds the §6.4 benchmark application as a Job: it opens
// src through the interposed library, streams it to end of file, and
// writes the copy back into the shared storage as dst. A job that fails
// mid-copy discards dst's descriptor, storing nothing.
func BigCopyJob(src, dst string, bufSize int) Job {
	if bufSize <= 0 {
		bufSize = 1 << 20
	}
	return Job{
		Name: fmt.Sprintf("bigCopy(%s->%s)", src, dst),
		Run: func(lib *IOLib) error {
			in, err := lib.Open(src)
			if err != nil {
				return err
			}
			defer lib.Close(in)
			out, err := lib.Create(dst)
			if err != nil {
				return err
			}
			buf := make([]byte, bufSize)
			for {
				n, err := lib.Read(in, buf)
				if err == io.EOF {
					return lib.Close(out)
				}
				if err == nil {
					_, err = lib.Write(out, buf[:n])
				}
				if err != nil {
					lib.Discard(out) //nolint:errcheck // out is this job's write descriptor
					return err
				}
			}
		},
	}
}
