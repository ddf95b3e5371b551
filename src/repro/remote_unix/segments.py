"""Program memory-segment model for checkpoint sizing.

Section 2.3: the state of a Remote Unix program is its text, data, bss and
stack segments plus registers and open-file status.  Text is saved too
(users may recompile a binary while an old copy runs for months), so the
checkpoint image size is simply the sum of the segments — plus whatever
the data/stack segments grew to during execution.
"""

from repro.sim.errors import SimulationError

KB_PER_MB = 1024.0


class SegmentLayout:
    """Sizes (KB) of the four 4.3BSD process segments, with optional growth.

    ``data_growth_kb_per_cpu_hour`` models heap growth as the job computes;
    the checkpoint written after ``p`` CPU-seconds of progress is
    ``image_mb(p)`` megabytes.  The paper's observed average image is
    0.5 MB, which :func:`typical_layout` targets.
    """

    def __init__(self, text_kb, data_kb, bss_kb, stack_kb,
                 data_growth_kb_per_cpu_hour=0.0):
        for label, value in (("text", text_kb), ("data", data_kb),
                             ("bss", bss_kb), ("stack", stack_kb)):
            if value < 0:
                raise SimulationError(f"{label} segment size must be >= 0")
        if data_growth_kb_per_cpu_hour < 0:
            raise SimulationError("data growth must be >= 0")
        self.text_kb = float(text_kb)
        self.data_kb = float(data_kb)
        self.bss_kb = float(bss_kb)
        self.stack_kb = float(stack_kb)
        self.data_growth_kb_per_cpu_hour = float(data_growth_kb_per_cpu_hour)

    def image_mb(self, cpu_progress_seconds=0.0, include_text=True):
        """Checkpoint image size in MB after the given CPU progress.

        ``include_text=False`` models the shared-text optimisation the
        paper proposes in §4 (one text segment serving many instances of
        the same simulation binary).
        """
        if cpu_progress_seconds < 0:
            raise SimulationError("cpu progress must be >= 0")
        grown = (
            self.data_growth_kb_per_cpu_hour * cpu_progress_seconds / 3600.0
        )
        kb = self.data_kb + self.bss_kb + self.stack_kb + grown
        if include_text:
            kb += self.text_kb
        return kb / KB_PER_MB

    def __repr__(self):
        return (
            f"SegmentLayout(text={self.text_kb}KB, data={self.data_kb}KB, "
            f"bss={self.bss_kb}KB, stack={self.stack_kb}KB)"
        )


def typical_layout(stream=None, scale=1.0):
    """A layout matching the paper's observed 0.5 MB average image.

    With a stream, sizes are jittered (lognormal-ish spread) while keeping
    the population mean near 0.5 MB; without one, the deterministic mean
    layout is returned.
    """
    text, data, bss, stack = 180.0, 200.0, 100.0, 32.0   # = 0.5 MB total
    if stream is not None:
        factor = 0.4 + 1.2 * stream.random()  # uniform on [0.4, 1.6], mean 1.0
        scale *= factor
    return SegmentLayout(
        text_kb=text * scale,
        data_kb=data * scale,
        bss_kb=bss * scale,
        stack_kb=stack * scale,
    )
