/**
 * @file
 * Preloaded (LD_PRELOAD) into every `hieragen serve` daemon the
 * benchmark starts: fsync() and fdatasync() return at once, as they
 * do on tmpfs. The daemon persists each job five times, and on the
 * checkout's disk those syncs swing the light jobs' latency by up to
 * 3x with the host's disk load. The benchmark may only write inside
 * its checkout, so it cannot give the daemon a tmpfs state directory;
 * this stands in for one. The cost of a real sync is measured apart,
 * in the traced run (svc.persist_ms_per_job).
 */

extern "C" int
fsync(int)
{
    return 0;
}

extern "C" int
fdatasync(int)
{
    return 0;
}
