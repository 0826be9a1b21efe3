"""Host-Device Execution Model (HDEM, paper Section 6.1).

One GPU exposes three concurrently usable engines: two DMA engines
(host→device and device→host copies) and one compute engine. Mixed
copy-compute stages (lossless codecs with internal (de)serialization —
the paper's yellow boxes) are exclusive: they may not overlap any other
task. :class:`HostDeviceModel` bundles a device spec, its cost model,
and an event simulator over the HDEM engine set.
"""

from __future__ import annotations

from repro.gpu.costmodel import CostModel
from repro.gpu.device import DeviceSpec
from repro.gpu.events import EventSimulator, Task, Timeline

#: The HDEM engine names (Fig. 4 color coding).
H2D = "h2d"  # green: host-to-device DMA
D2H = "d2h"  # red: device-to-host DMA
COMPUTE = "compute"  # blue: kernels

HDEM_ENGINES = (H2D, D2H, COMPUTE)


class HostDeviceModel:
    """A simulated device with HDEM semantics."""

    def __init__(
        self,
        device: DeviceSpec,
        link_bandwidth_override_gbps: float | None = None,
    ) -> None:
        self.device = device
        self.cost = CostModel(device)
        self.simulator = EventSimulator(list(HDEM_ENGINES))
        if link_bandwidth_override_gbps is not None:
            if link_bandwidth_override_gbps <= 0:
                raise ValueError("link bandwidth override must be > 0")
        self._link_override = link_bandwidth_override_gbps

    @property
    def link_bandwidth_gbps(self) -> float:
        """Per-direction DMA bandwidth, possibly derated for contention."""
        if self._link_override is not None:
            return min(self._link_override, self.device.link_bandwidth_gbps)
        return self.device.link_bandwidth_gbps

    def dma_seconds(self, nbytes: int) -> float:
        """One-direction copy time on a (possibly contended) link."""
        return nbytes / (self.link_bandwidth_gbps * 1e9)

    def run(self, tasks: list[Task]) -> Timeline:
        """Schedule a task DAG on the HDEM engines and validate it."""
        timeline = self.simulator.run(tasks)
        timeline.validate(tasks)
        return timeline
