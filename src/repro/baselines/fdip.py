"""Fetch-Directed Instruction Prefetching (FDIP) baseline.

Reinman, Calder and Austin's FDIP (MICRO'99) is the classic
branch-predictor-directed scheme the paper's related work discusses:
a decoupled frontend lets the branch predictor run *ahead* of fetch,
and the lines of predicted-future blocks are prefetched into the L1I.

Our model keeps the essential mechanics:

* a :class:`BimodalBTB` — per-block predicted successor with 2-bit
  hysteresis, trained online by the actual control flow (mimicking a
  BTB + bimodal direction predictor);
* a fetch-target queue of ``runahead`` predicted blocks, extended
  incrementally while predictions hold and re-filled from scratch on
  a mispredict (the "insufficient lookahead on loop branches /
  wrong-path interference" failure mode the paper cites);
* prefetches issued through the shared fill port, so wrong-path
  prefetches cost bandwidth exactly like any other inaccuracy.

FDIP needs no profile, but on branchy data-center code its lookahead
collapses at every mispredict — which is precisely why the paper
pursues profile-guided injection instead.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..sim.mechanism import Targets
from .protocol import (
    MechanismPrefetcher,
    ProfileView,
    ReplayContext,
    register_prefetcher,
)


class BimodalBTB:
    """Capacity-limited per-block next-block predictor.

    Stores, per source block, a predicted successor and a 2-bit
    confidence counter: correct predictions strengthen, mispredicts
    weaken and eventually replace the target (classic BTB + bimodal
    behaviour at basic-block granularity).

    ``capacity`` bounds the number of tracked blocks with LRU
    replacement.  This is the crux of the paper's Section VIII
    critique of hardware-only schemes: data-center instruction
    footprints have orders of magnitude more branches than any
    realistic BTB holds, so the run-ahead path constantly falls off
    trained ground.  (Pass ``capacity=None`` for the unbounded
    idealization.)
    """

    __slots__ = ("capacity", "_targets", "_confidence")

    #: roughly a modern server-class BTB (Skylake-era ~4K entries)
    DEFAULT_CAPACITY = 4096

    def __init__(self, capacity: Optional[int] = DEFAULT_CAPACITY) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive or None")
        self.capacity = capacity
        from collections import OrderedDict

        self._targets: "OrderedDict[int, int]" = OrderedDict()
        self._confidence: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._targets)

    def predict(self, block_id: int) -> Optional[int]:
        """Predicted successor of *block_id*, or None if untrained."""
        target = self._targets.get(block_id)
        if target is not None:
            self._targets.move_to_end(block_id)
        return target

    def train(self, block_id: int, actual_next: int) -> bool:
        """Update with the observed transfer; returns True if the
        prediction (if any) was correct."""
        predicted = self._targets.get(block_id)
        if predicted is None:
            if self.capacity is not None and len(self._targets) >= self.capacity:
                evicted, _ = self._targets.popitem(last=False)
                self._confidence.pop(evicted, None)
            self._targets[block_id] = actual_next
            self._confidence[block_id] = 1
            return False
        self._targets.move_to_end(block_id)
        if predicted == actual_next:
            confidence = self._confidence[block_id]
            if confidence < 3:
                self._confidence[block_id] = confidence + 1
            return True
        confidence = self._confidence[block_id] - 1
        if confidence <= 0:
            self._targets[block_id] = actual_next
            self._confidence[block_id] = 1
        else:
            self._confidence[block_id] = confidence
        return False


#: storage accounting per BTB entry: tag + target + 2-bit confidence,
#: rounded to 8 bytes (the Section VIII storage argument)
BTB_ENTRY_BYTES = 8


class FDIPPrefetcher(MechanismPrefetcher):
    """FDIP through the zoo protocol: profile-free and plan-free; its
    deployment cost is all predictor metadata (the BTB)."""

    planner = "fdip"
    requires_profile = False

    def __init__(
        self,
        runahead: int = 16,
        btb_capacity: Optional[int] = BimodalBTB.DEFAULT_CAPACITY,
    ) -> None:
        if runahead < 1:
            raise ValueError("runahead must be at least one block")
        if btb_capacity is not None and btb_capacity <= 0:
            raise ValueError("btb_capacity must be positive or None")
        self.runahead = runahead
        self.btb_capacity = btb_capacity
        self.name = "fdip"

    @property
    def cache_token(self) -> str:
        return f"fdip@r{self.runahead}b{self.btb_capacity}"

    def train_result(self, view: ProfileView) -> None:
        return None

    def triggers(
        self, view: ProfileView, ctx: ReplayContext
    ) -> Dict[str, Targets]:
        """A block trigger over a fresh BTB.  On reaching each block it
        trains the predictor, steers the fetch target queue and returns
        the lines of every newly predicted block, nearest first.
        Nothing here reads cache state, so the lines can be issued
        after the steering is done."""
        runahead = self.runahead
        predictor = BimodalBTB(capacity=self.btb_capacity)
        lines_of = {block.block_id: block.lines for block in view.program}
        #: predicted future blocks, nearest first
        target_queue: List[int] = []
        previous: Optional[int] = None

        def block_targets(block_id: int) -> List[int]:
            nonlocal previous
            if previous is not None:
                predictor.train(previous, block_id)
            previous = block_id
            predicted: List[int] = []
            if target_queue and target_queue[0] == block_id:
                # the path held: extend the queue by one block
                target_queue.pop(0)
                if target_queue:
                    successor = predictor.predict(target_queue[-1])
                    if successor is not None and len(target_queue) < runahead:
                        predicted.append(successor)
            else:
                # mispredict (or cold): restart the runahead from here
                target_queue.clear()
                cursor: Optional[int] = block_id
                for _ in range(runahead):
                    cursor = predictor.predict(cursor)
                    if cursor is None:
                        break
                    predicted.append(cursor)
            target_queue.extend(predicted)
            return [line for block in predicted for line in lines_of[block]]

        return {"block_targets": block_targets}

    def metadata_bytes(self, trained: object = None) -> int:
        return (self.btb_capacity or 0) * BTB_ENTRY_BYTES


register_prefetcher("fdip", FDIPPrefetcher)
