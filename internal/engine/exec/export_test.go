package exec

// ReleaseCountersDuring runs f with q's counter lock released, from a clock
// observer on the executing goroutine (which holds the lock), so a test
// observer can wait for a reader on another goroutine without deadlocking
// on the lock that reader queues for.
func ReleaseCountersDuring(q *Query, f func()) {
	q.Ctx.release()
	defer q.Ctx.acquire()
	f()
}
