"""Deterministic synthetic data with injected anomalies.

Sensors fall into clusters that share a base oscillation (period and phase);
each sensor adds its own amplitude, offset, harmonic, small phase jitter and
noise, so same-cluster sensors stay strongly correlated.  Train and test are
consecutive halves of one long realization; anomalies are injected into the
test half only and labelled.
"""

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from canet.data import RawSeries

ANOMALY_KINDS = ("spike", "drift", "stuck")
NOISE_STD = 0.05


@dataclass
class AnomalySegment:
    """One injected anomaly: [start, start+duration) on the test series."""

    start: int
    duration: int
    sensors: List[int]
    kind: str = "spike"
    magnitude: float = 5.0      # in units of the sensor's training std

    def __post_init__(self):
        if self.kind not in ANOMALY_KINDS:
            raise ValueError(f"unknown anomaly kind {self.kind!r}; choose from {ANOMALY_KINDS}")
        if self.duration < 1:
            raise ValueError("anomaly duration must be >= 1")

    @property
    def end(self) -> int:
        return self.start + self.duration


@dataclass
class SynthResult:
    train: RawSeries
    test: RawSeries
    clusters: List[List[int]] = field(default_factory=list)
    adjacency: Optional[np.ndarray] = None     # ground-truth sensor graph


def synth_generate(n_sensors: int, length: int, seed: int,
                   anomalies: Optional[List[AnomalySegment]] = None) -> SynthResult:
    """Generate a (train, test) pair of equal length, test labelled.

    Deterministic for a fixed seed; overlapping anomaly segments and
    segments outside the test range are rejected.
    """
    if n_sensors < 1 or length < 2:
        raise ValueError("need n_sensors >= 1 and length >= 2")
    anomalies = list(anomalies or [])
    _check_segments(anomalies, length, n_sensors)

    rng = np.random.default_rng(seed)
    n_clusters = max(1, -(-n_sensors // 3))        # ceil(n/3)
    membership = [i % n_clusters for i in range(n_sensors)]

    period = rng.uniform(40.0, 90.0, size=n_clusters)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=n_clusters)

    total = 2 * length
    t = np.arange(total, dtype=np.float64)
    values = np.empty((n_sensors, total), dtype=np.float64)
    for s in range(n_sensors):
        c = membership[s]
        amplitude = rng.uniform(0.6, 1.4)
        offset = rng.uniform(-0.5, 0.5)
        harmonic = rng.uniform(0.05, 0.2)
        jitter = rng.uniform(-0.05, 0.05)
        base = 2.0 * np.pi * t / period[c] + phase[c] + jitter
        clean = offset + amplitude * np.sin(base) + harmonic * np.sin(2.0 * base)
        values[s] = clean + rng.normal(0.0, NOISE_STD, size=total)

    names = [f"sensor_{i}" for i in range(n_sensors)]
    train_values = values[:, :length].copy()
    test_values = values[:, length:].copy()
    labels = np.zeros(length, dtype=np.int64)

    train_std = train_values.std(axis=1)
    for seg in anomalies:
        scale = seg.magnitude * train_std[seg.sensors]
        for s, amount in zip(seg.sensors, scale):
            if seg.kind == "spike":
                test_values[s, seg.start:seg.end] += amount
            elif seg.kind == "drift":
                test_values[s, seg.start:seg.end] += np.linspace(0.0, amount, seg.duration)
            else:  # stuck
                test_values[s, seg.start:seg.end] = test_values[s, seg.start]
        labels[seg.start:seg.end] = 1

    clusters = [[s for s in range(n_sensors) if membership[s] == c] for c in range(n_clusters)]
    adjacency = np.zeros((n_sensors, n_sensors), dtype=np.int64)
    for members in clusters:
        for a in members:
            for b in members:
                adjacency[a, b] = 1

    return SynthResult(
        train=RawSeries(names, train_values),
        test=RawSeries(names, test_values, labels=labels),
        clusters=clusters,
        adjacency=adjacency,
    )


def place_segments(count: int, length: int, n_sensors: int, rng: np.random.Generator,
                   duration: int = 10, magnitude: float = 5.0,
                   kind: str = "spike", sensors_per_segment: int = 2,
                   taken: Optional[List[tuple]] = None) -> List[AnomalySegment]:
    """Seeded non-overlapping segment placement for the CLI generator; the
    new segments also avoid, and are appended to, the ``taken`` (start, end) spans."""
    if count == 0:
        return []
    margin = min(50, max(1, length // 10))
    if length - duration - margin <= margin:
        raise ValueError(f"series of length {length} is too short for duration-{duration} anomalies")
    segments: List[AnomalySegment] = []
    taken = [] if taken is None else taken
    attempts = 0
    while len(segments) < count:
        attempts += 1
        if attempts > 1000 * count:
            raise ValueError(f"could not place {count} non-overlapping segments in length {length}")
        start = int(rng.integers(margin, length - duration - margin))
        if any(start < e and s < start + duration for s, e in taken):
            continue
        picked = sorted(rng.choice(n_sensors, size=min(sensors_per_segment, n_sensors),
                                   replace=False).tolist())
        segments.append(AnomalySegment(start=start, duration=duration, sensors=picked,
                                       kind=kind, magnitude=magnitude))
        taken.append((start, start + duration))
    return sorted(segments, key=lambda seg: seg.start)


def _check_segments(segments: List[AnomalySegment], length: int, n_sensors: int) -> None:
    spans = sorted((seg.start, seg.end) for seg in segments)
    for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
        if s2 < e1:
            raise ValueError(f"anomaly segments overlap: [{s1},{e1}) and [{s2},{e2})")
    for seg in segments:
        if seg.start < 0 or seg.end > length:
            raise ValueError(f"segment [{seg.start},{seg.end}) outside series of length {length}")
        if any(s < 0 or s >= n_sensors for s in seg.sensors):
            raise ValueError(f"segment names sensor outside 0..{n_sensors - 1}: {seg.sensors}")
