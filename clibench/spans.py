"""Span tracing of the matirec CLI from outside the program.

``Tracer.install`` replaces module attributes at their call sites (for
example ``matirec.pipeline.run_em`` and ``matirec.cli.params_from_json``) and
the recommenders' ``recommend`` methods with wrappers that record a span
(name, start, end, parent) and read counts from the returned objects.
``Tracer.uninstall`` puts every original back.  Spans stay in memory; a
layer's self time is its spans' durations minus their direct children's.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from dataclasses import dataclass
from functools import wraps
from typing import Callable

# Span name prefix for model calls made under each command.
MODEL_STAGE = {"evaluate": "evaluation", "recommend": "recommend"}


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.command = ""
        self._stack: list[int] = []
        self._model_depth = 0
        self._restore: list[Callable[[], None]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def _wrapper(self, func, name, count=None, model=False):
        tracer = self

        @wraps(func)
        def traced(*args, **kwargs):
            # A model called by another model (hybrid's probe and its chosen
            # path) is part of the caller's cost, not a span of its own.
            if model and tracer._model_depth:
                return func(*args, **kwargs)
            label = name(args) if callable(name) else name
            idx = tracer._open(label)
            tracer._model_depth += model
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._model_depth -= model
                tracer._close(idx)
            if count is not None:
                count(tracer, args, result)
            return result
        return traced

    def wrap(self, owner, attr: str, name, count=None, model=False) -> None:
        """Replace ``owner.attr`` (module, class or dict entry) with a traced call.

        ``name`` is a span name or a function of the call's arguments giving
        one; ``count`` reads counts from the arguments and the result.
        ``model`` marks recommender calls, which nest into no other model call.
        """
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = self._wrapper(original, name, count, model)
            self._restore.append(lambda: owner.__setitem__(attr, original))
        else:
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrapper(getattr(owner, attr), name, count, model))
            self._restore.append(lambda: setattr(owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def install(self) -> None:
        from matirec import cli, evaluation, ingest, pipeline

        def command_span(cmd):
            def name(_args):
                self.command = cmd
                return f"cmd.{cmd}"
            return name

        for cmd in list(cli.COMMANDS):
            self.wrap(cli.COMMANDS, cmd, command_span(cmd))

        def add(key, value):
            def count(tracer, _args, result):
                tracer.counts[key] += value(result)
            return count

        def grid_cells(tracer, _args, result):
            cells = math.prod(result.index.grid_shape())
            tracer.counts["slabs.grid_cells"] = max(tracer.counts["slabs.grid_cells"], cells)

        def sampling(tracer, _args, result):
            state = result[2]
            tracer.counts["sampling.rounds"] += state.round
            tracer.counts["sampling.users_drawn"] += len(state.drawn)

        def em(tracer, _args, result):
            params, report = result
            tracer.counts["mati.em_iterations"] += report.iterations
            tracer.counts["mati.pairs"] += len(params.pair_tables)

        def route(tracer, _args, decision):
            if decision is not None:
                tracer.counts[f"hybrid.{decision.path}_users"] += 1

        self.wrap(ingest, "parse_checkins", "ingest.parse",
                  add("ingest.checkins", lambda log: len(log.checkins)))
        self.wrap(ingest, "parse_social", "ingest.parse")
        self.wrap(ingest, "serialize_log", "ingest.serialize")
        self.wrap(ingest, "serialize_social", "ingest.serialize")
        self.wrap(cli, "file_checksum", "cli.checksum")
        self.wrap(cli, "build_slab_index", "slabs.build", grid_cells)
        self.wrap(pipeline, "build_slab_index", "slabs.build", grid_cells)
        self.wrap(pipeline, "collect_until", "sampling.collect", sampling)
        self.wrap(pipeline, "aggregate_similarity", "slabs.similarity")
        self.wrap(pipeline, "complete_matrix", "slabs.complete")
        self.wrap(pipeline, "hac_complete_linkage", "slabs.hac")
        self.wrap(pipeline, "all_slab_profiles", "slabs.profiles")
        self.wrap(pipeline.UsgComponents, "__init__", "baselines.components")
        self.wrap(pipeline, "training_pr_nu", "pipeline.pr_nu")
        self.wrap(cli, "train_models", "pipeline.train_models")
        self.wrap(pipeline, "run_em", "mati.em", em)
        self.wrap(cli, "params_to_json", "mati.params_write",
                  add("mati.params_bytes", lambda text: len(text.encode("utf-8"))))
        self.wrap(cli, "params_from_json", "mati.params_read")
        self.wrap(evaluation, "split_exclude", "evaluation.split",
                  add("evaluation.test_users", lambda split: len(split.excluded)))
        self.wrap(evaluation, "evaluate", "evaluation.evaluate")
        self.wrap(pipeline.HybridRecommender, "_route", "hybrid.route", route)

        def model_span(args):
            return f"{MODEL_STAGE.get(self.command, self.command)}.{args[0].name}"

        def candidates(tracer, args, _result):
            if tracer.command == "evaluate":
                model, user = args[0], args[1]
                components = getattr(model, "components", None) or model.usg.components
                tracer.counts["evaluation.candidates"] += len(components.candidates_for(user))

        for klass in (pipeline._RankedRecommender, pipeline._UnivariateRecommender,
                      pipeline.MatiRecommender, pipeline.HybridRecommender):
            self.wrap(klass, "recommend", model_span, candidates, model=True)
        self.wrap(pipeline.HybridRecommender, "score", model_span, model=True)

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for i, span in enumerate(self.spans):
            row = out[span.name]
            row[0] += 1
            row[1] += span.end - span.start
            row[2] += span.end - span.start - child[i]
        return {name: tuple(row) for name, row in out.items()}

    def command_coverage(self) -> dict[str, float]:
        """Share of each command's wall time covered by its direct child spans."""
        covered = defaultdict(float)
        for span in self.spans:
            if span.parent is not None and self.spans[span.parent].name.startswith("cmd."):
                covered[span.parent] += span.end - span.start
        return {span.name[4:]: covered[i] / (span.end - span.start)
                for i, span in enumerate(self.spans) if span.name.startswith("cmd.")}
