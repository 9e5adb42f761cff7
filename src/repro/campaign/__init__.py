"""Campaign orchestration: matrix expansion, parallel execution, resume.

The subsystem that turns Meterstick from a one-config runner into a
campaign engine (ROADMAP: scale + speed + scenario diversity):

* :class:`CampaignSpec` — declarative parameter matrix over the existing
  server/workload/environment registries, loadable from YAML/JSON;
* :class:`JobPlanner` / :class:`Job` — deterministic expansion into
  independent server-chain jobs with stable CRC32 ids;
* :class:`CampaignExecutor` — multiprocessing fan-out with a serial
  fallback, bit-identical to sequential execution;
* :class:`JobStore` — resumable on-disk job records + manifest under the
  campaign's ``output_dir``;
* :mod:`repro.campaign.cli` — the ``python -m repro`` command line.
"""

from repro.campaign.executor import CampaignExecutor, execute_job
from repro.campaign.planner import Job, JobPlanner
from repro.campaign.spec import CampaignCell, CampaignSpec, MATRIX_AXES
from repro.campaign.store import JobStore

__all__ = [
    "CampaignCell",
    "CampaignExecutor",
    "CampaignSpec",
    "Job",
    "JobPlanner",
    "JobStore",
    "MATRIX_AXES",
    "execute_job",
]
