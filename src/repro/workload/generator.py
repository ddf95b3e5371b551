"""Workload generation: drive user submission processes against a system.

Two behaviours, matching §3's observations:

* the **heavy** user tops their standing queue back up to its target
  whenever completions drain it ("the heavy user kept more than 30 jobs
  in the system for long periods");
* **light** users show up at random times and drop a batch of ≈5 jobs
  (the sharp spikes in Figs. 3/7), then disappear again.

Each submitted job draws its demand, image layout and syscall rate from
the user's profile distributions.  Submissions refused for disk pressure
are counted, not retried.
"""

from repro.core.errors import SubmissionRefused
from repro.core.job import Job, LiveJobs
from repro.remote_unix.segments import typical_layout


class WorkloadGenerator:
    """Spawns one submission process per user profile.

    With a ``horizon``, light users' batch times are drawn as sorted
    uniforms over it — a Poisson process conditioned on the batch count,
    guaranteeing every user appears within the observation window.
    Without one, batches follow the profile's interbatch distribution.
    """

    def __init__(self, sim, system, profiles, stream, horizon=None):
        self.sim = sim
        self.system = system
        self.profiles = list(profiles)
        self.stream = stream
        self.horizon = horizon
        #: user name -> jobs successfully submitted (append-only).
        self.submitted = {profile.name: [] for profile in self.profiles}
        self._live = {name: LiveJobs(jobs)
                      for name, jobs in self.submitted.items()}
        #: user name -> submissions refused by the home disk.
        self.refused = {profile.name: 0 for profile in self.profiles}
        # One persistent substream per user and purpose — forking anew per
        # draw would restart the substream and repeat the same values.
        self._job_streams = {
            p.name: stream.fork(f"user-{p.name}.jobs") for p in self.profiles
        }
        self._arrival_streams = {
            p.name: stream.fork(f"user-{p.name}.arrivals")
            for p in self.profiles
        }
        self._started = False

    def start(self):
        """Spawn all user processes.  Idempotent."""
        if self._started:
            return
        self._started = True
        for profile in self.profiles:
            runner = (self._heavy_user if profile.heavy
                      else self._light_user)
            self.sim.spawn(runner(profile), name=f"user-{profile.name}")

    # ------------------------------------------------------------------

    def all_jobs(self):
        """Every successfully submitted job across users, in job-id order."""
        jobs = [job for jobs in self.submitted.values() for job in jobs]
        return sorted(jobs, key=lambda job: job.id)

    def light_user_names(self):
        return frozenset(p.name for p in self.profiles if not p.heavy)

    def in_system_count(self, user):
        return len(self._live[user].current())

    def remaining_budget(self, profile):
        used = len(self.submitted[profile.name]) + self.refused[profile.name]
        return max(0, profile.total_jobs - used)

    # ------------------------------------------------------------------

    def _make_job(self, profile):
        stream = self._job_streams[profile.name]
        demand = max(60.0, profile.demand_dist.sample(stream))
        return Job(
            user=profile.name,
            home=profile.home,
            demand_seconds=demand,
            layout=typical_layout(stream),
            syscall_rate=profile.syscall_rate_dist.sample(stream),
        )

    def _submit_one(self, profile):
        job = self._make_job(profile)
        try:
            self.system.submit(job)
        except SubmissionRefused:
            self.refused[profile.name] += 1
            return None
        self.submitted[profile.name].append(job)
        return job

    def _submit_batch(self, profile, size):
        for _ in range(size):
            if self.remaining_budget(profile) == 0:
                break
            self._submit_one(profile)

    def _heavy_user(self, profile):
        stream = self._arrival_streams[profile.name]
        day = 0
        submitted_today = 0
        while self.remaining_budget(profile) > 0:
            current_day = int(self.sim.now // 86400.0)
            if current_day != day:
                day = current_day
                submitted_today = 0
            deficit = (profile.standing_target
                       - self.in_system_count(profile.name))
            if profile.daily_quota is not None:
                deficit = min(deficit, profile.daily_quota - submitted_today)
            if deficit > 0:
                batch = int(round(profile.batch_size_dist.sample(stream)))
                before = len(self.submitted[profile.name])
                self._submit_batch(profile, min(max(1, batch), deficit))
                submitted_today += len(self.submitted[profile.name]) - before
            yield profile.check_interval

    def _light_user(self, profile):
        stream = self._arrival_streams[profile.name]
        if self.horizon is not None:
            mean_batch = max(1.0, profile.batch_size_dist.mean())
            n_batches = max(1, round(profile.total_jobs / mean_batch))
            times = sorted(
                stream.uniform(0.0, 0.95 * self.horizon)
                for _ in range(n_batches)
            )
            for t in times:
                if self.remaining_budget(profile) == 0:
                    return
                delay = t - self.sim.now
                if delay > 0:
                    yield delay
                batch = int(round(profile.batch_size_dist.sample(stream)))
                self._submit_batch(profile, max(1, batch))
            # Leftover budget (small batch draws): one final batch.
            self._submit_batch(profile, self.remaining_budget(profile))
            return
        while self.remaining_budget(profile) > 0:
            yield profile.interbatch_dist.sample(stream)
            batch = int(round(profile.batch_size_dist.sample(stream)))
            self._submit_batch(profile, max(1, batch))

    def __repr__(self):
        counts = {name: len(jobs) for name, jobs in self.submitted.items()}
        return f"<WorkloadGenerator submitted={counts}>"
