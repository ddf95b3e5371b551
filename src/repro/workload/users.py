"""User profiles calibrated to Table 1 of the paper.

Five users drove the observed month:

===== ======= ================== ============ ==================
user   jobs    % of jobs          avg h/job    total demand (h)
===== ======= ================== ============ ==================
A       690     75                 6.2          4278   (heavy)
B       138     15                 2.5           345   (light)
C        39      4                 2.6           101   (light)
D        40      4                 0.7            28   (light)
E        11      1                 1.7            19   (light)
===== ======= ================== ============ ==================

User A "often tried to execute as many remote jobs as there were
workstations" and kept 30+ jobs queued; the light users submitted
batches of ≈5 jobs.  Service demands are heavy-tailed (mean ≈5 h but
median <3 h, Fig. 2), modelled per-user as two-phase hyperexponentials.
"""

import math

from repro.sim import HOUR
from repro.sim.errors import SimulationError
from repro.sim.randomness import Exponential, LogNormal, Uniform, fit_hyperexponential

#: (name, total jobs, mean demand hours) straight from Table 1.
TABLE_1 = (
    ("A", 690, 6.2),
    ("B", 138, 2.5),
    ("C", 39, 2.6),
    ("D", 40, 0.7),
    ("E", 11, 1.7),
)

#: Squared coefficient of variation of per-user demand.  Chosen so the
#: pooled distribution reproduces Fig. 2's mean ≈5 h with median <3 h.
DEMAND_CV2 = 2.5

#: Jobs the heavy user keeps standing in the system ("more than 30").
HEAVY_STANDING_TARGET = 35

#: Light users' batches are "≈5 jobs" (§3, Fig. 3).
LIGHT_BATCH_MEAN = 5


class UserProfile:
    """One user's submission behaviour over the experiment."""

    def __init__(self, name, home, total_jobs, demand_dist,
                 batch_size_dist=None, interbatch_dist=None,
                 standing_target=None, syscall_rate_dist=None,
                 check_interval=10 * 60.0, daily_quota=None):
        if total_jobs < 0:
            raise SimulationError(f"total_jobs must be >= 0: {total_jobs}")
        if standing_target is None and interbatch_dist is None:
            raise SimulationError(
                f"user {name}: a light user needs an interbatch distribution"
            )
        self.name = name
        self.home = home
        self.total_jobs = int(total_jobs)
        self.demand_dist = demand_dist
        self.batch_size_dist = batch_size_dist
        self.interbatch_dist = interbatch_dist
        #: Standing queue target; non-None marks the heavy user.
        self.standing_target = standing_target
        #: System calls per CPU second.  Condor's clientele are compute-
        #: bound simulations; the mix is skewed very low (a call every
        #: tens of seconds), which is what makes leverage ≈ 1300 possible.
        self.syscall_rate_dist = syscall_rate_dist or LogNormal(0.055, 1.1)
        self.check_interval = check_interval
        #: Max submissions per day (heavy users pace their campaigns over
        #: the month rather than dumping everything up front).
        self.daily_quota = daily_quota

    @property
    def heavy(self):
        return self.standing_target is not None

    def __repr__(self):
        kind = "heavy" if self.heavy else "light"
        return f"<UserProfile {self.name} {kind} jobs={self.total_jobs}>"


def paper_profiles(homes, horizon_seconds, job_scale=1.0, cv2=DEMAND_CV2):
    """Build Table 1's five users.

    ``homes`` maps user name -> home station name (each of the five users
    submits from their own workstation).  ``job_scale`` shrinks the job
    counts proportionally for fast test runs; demands are untouched so
    per-job statistics keep their shape.
    """
    if not math.isfinite(job_scale) or job_scale <= 0:
        raise SimulationError(
            f"job_scale must be a finite number > 0: {job_scale}")
    profiles = []
    for name, jobs, mean_hours in TABLE_1:
        total = max(1, round(jobs * job_scale))
        demand = fit_hyperexponential(mean_hours * HOUR, cv2)
        if name == "A":
            # Pace the heavy user's 690 jobs over the observation window
            # (he kept the queue topped up all month, not only in week 1).
            horizon_days = max(1.0, horizon_seconds / (24 * HOUR))
            quota = max(3, round(total / horizon_days * 1.15))
            profiles.append(UserProfile(
                name, homes[name], total, demand,
                batch_size_dist=Uniform(5, 15),
                standing_target=HEAVY_STANDING_TARGET,
                daily_quota=quota,
            ))
        else:
            # Spread the user's batches over the horizon: with batches of
            # ~5 jobs, a user with N jobs submits ~N/5 batches.
            n_batches = max(1.0, total / LIGHT_BATCH_MEAN)
            interbatch = Exponential(horizon_seconds / n_batches)
            profiles.append(UserProfile(
                name, homes[name], total, demand,
                batch_size_dist=Uniform(2, 8),
                interbatch_dist=interbatch,
            ))
    return profiles
