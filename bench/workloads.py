"""The benchmark's workloads: seeded inputs, timed loops, correctness gate.

Every workload calls prosynth only through its public functions. The seed
decides the content of the inputs; the size profile of the inputs (frames
per training utterance, symbols per synthesis input) is fixed per workload,
so that runs on different seeds do the same amount of work and their
timings can be compared.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

from prosynth import align, fileio, prosody, seq2seq, synthdata
from prosynth import autodiff as ad

from spans import Tracer, percentile

FRAME_PERIOD_S = 0.0125  # 12.5 ms hop; pace is reported in seconds
SETUPS_PER_REPEAT = 2  # train: set-up samples before each repeat
SETUP_EVERY = 10  # synth: one set-up sample every 10 inputs
# a p90 needs at least 10 samples beyond it
MIN_LATENCY_SAMPLES = 100

# Frame counts of the training corpus: the 24 quantiles (at (k + 0.5) / 24)
# of utterance length over default-shaped corpora. Every sixth one, spread
# over the range, goes to the validation split.
TRAIN_FRAME_PROFILE = (41, 47, 52, 55, 59, 62, 65, 70, 73, 76, 79, 83,
                       85, 89, 92, 95, 98, 102, 107, 113, 120, 128, 137, 155)
VAL_POSITIONS = frozenset({3, 9, 15, 21})
TRAIN_POOL = 240
TRAIN_EPOCHS = 1

# Symbols per synthesis input: 5 each of N = 15..34, mean 24.5, so a pass
# decodes 4 * 2450 = 9800 frames.
SYNTH_SYMBOL_PROFILE = tuple(n for n in range(15, 35) for _ in range(5))
SYNTH_POOL = 300
FORCED_DECODE_RATIO = 4


def _tensor_id_probe():
    return ad.Tensor(0.0)._id


# -- inputs ------------------------------------------------------------------------


def voiced_mask(utt):
    """Per-frame flag: the frame belongs to a non-silence symbol."""
    return np.repeat(~utt.symbols.silence, utt.durations)


def select_by_size(pool, profile, size, eligible=lambda u: True):
    """For each target size in profile, take the unused eligible utterance
    of the pool whose size is closest (lowest pool index on ties)."""
    free = [u for u in pool if eligible(u)]
    if len(free) < len(profile):
        raise RuntimeError(f"select_by_size: {len(free)} eligible utterances for {len(profile)} targets")
    chosen = []
    for target in profile:
        best = min(range(len(free)), key=lambda i: abs(size(free[i]) - target))
        chosen.append(free.pop(best))
    return chosen


def prosody_table(utts):
    """utt_id -> normalised (pace, pitch_span), from the public extractors.

    The pitch channel of the synthetic features is already log-pitch (it can
    be <= 0), so it is used as is.
    """
    infos = [
        prosody.ProsodyInfo(
            prosody.compute_pace(u.durations, u.symbols.silence, FRAME_PERIOD_S),
            prosody.compute_pitch_span(u.pitch_contour, voiced_mask(u)),
        )
        for u in utts
    ]
    stats = prosody.fit_speaker_stats(infos)
    return {u.utt_id: prosody.normalize(info, stats).as_array() for u, info in zip(utts, infos)}


def setup_train(seed):
    """Corpus, prosody table and config for the training workloads; also
    initialises the model once, as a user's first step would."""
    pool = synthdata.generate_corpus(
        synthdata.CorpusConfig(utterance_count=TRAIN_POOL, validation_count=0, seed=seed))
    chosen = select_by_size(
        pool.utterances, TRAIN_FRAME_PROFILE, size=lambda u: u.features.shape[0],
        eligible=lambda u: voiced_mask(u).sum() >= prosody.MIN_VOICED_FRAMES)
    for i, u in enumerate(chosen):
        u.split = "val" if i in VAL_POSITIONS else "train"
    corpus = synthdata.Corpus(pool.config, pool.duration_table, pool.templates, chosen)
    table = prosody_table(corpus.utterances)
    cfg = seq2seq.ModelConfig(epochs=TRAIN_EPOCHS, seed=seed)
    seq2seq.init_params(cfg, corpus.config.vocab_size)
    return corpus, table, cfg


def setup_synth(seed):
    """Long synthesis inputs, a model and a prosody predictor.

    The seed model's stop logit ends every decode after one frame. A stop
    threshold of 1.0, which a sigmoid never exceeds, makes every decode run
    to max_decode_ratio * N frames.
    """
    pool = synthdata.generate_corpus(synthdata.CorpusConfig(
        utterance_count=SYNTH_POOL, validation_count=0, min_words=4, max_words=8, seed=seed))
    chosen = select_by_size(pool.utterances, SYNTH_SYMBOL_PROFILE, size=lambda u: len(u.symbols))
    cfg = seq2seq.ModelConfig(seed=seed, stop_threshold=1.0, max_decode_ratio=FORCED_DECODE_RATIO)
    params = seq2seq.init_params(cfg, pool.config.vocab_size)
    predictor = prosody.ProsodyPredictor(2 * cfg.encoder_rnn_width, seed=seed)
    return [u.symbols for u in chosen], cfg, params, predictor


def another_unit(start, seconds, unit_times, minimum):
    """True while fewer than minimum units ran, or while one more unit of
    the median length so far still ends within seconds of start."""
    if len(unit_times) < minimum:
        return True
    return time.perf_counter() - start + statistics.median(unit_times) <= seconds


def sampled(build, times):
    """Run build once and append its wall time to times. Set-up samples are
    spread over the run, because a shared host's speed drifts over seconds."""
    t0 = time.perf_counter()
    result = build()
    times.append(time.perf_counter() - t0)
    return result


def traced_setup(build):
    """One set-up with corpus generation and prosody extraction traced."""
    tracer = Tracer()
    tracer.add(synthdata, "generate_corpus", "synthdata.generate_corpus")
    tracer.add(sys.modules[__name__], "prosody_table", "prosody.extract")
    with tracer.active():
        result = build()
    return tracer.summary(), result


# -- correctness gate ------------------------------------------------------------


class Gate:
    """Counts operations and the ones whose output broke a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: {'; '.join(problems)}")


def alignment_problems(matrix, n, t):
    if matrix.shape != (n, t):
        return [f"alignment shape {matrix.shape}, expected {(n, t)}"]
    if not np.all(np.isfinite(matrix)):
        return ["alignment has non-finite entries"]
    worst = float(np.max(np.abs(matrix.sum(axis=0) - 1.0)))
    if worst > align.SUM_TOL:
        return [f"alignment column sum off by {worst:.3g} > {align.SUM_TOL}"]
    return []


def training_problems(result, reference, corpus, table, cfg, mode, ckpt_dir):
    problems = []
    if len(result.history) != cfg.epochs:
        problems.append(f"{len(result.history)} history rows for {cfg.epochs} epochs")
    for row in result.history:
        for key in ("train_loss", "val_loss", "val_entropy"):
            if not math.isfinite(row[key]):
                problems.append(f"epoch {row['epoch']} {key} = {row[key]}")
    if reference is not None and result.history:
        final = (result.history[-1]["val_loss"], result.history[-1]["val_entropy"])
        if final != reference:
            problems.append(f"final (val_loss, val_entropy) {final} differs from first repeat {reference}")
    if not (Path(ckpt_dir) / "checkpoint.bin").is_file():
        problems.append("no checkpoint written")
    for u in corpus.split("val"):
        _, trace = seq2seq.teacher_forced(result.params, cfg, u, table[u.utt_id], mode)
        problems += alignment_problems(trace.alignment, len(u.symbols), u.features.shape[0])
    return problems


def synthesis_problems(trace, n, cfg, digest, reference_digest):
    problems = []
    want = cfg.max_decode_ratio * n
    if trace.frame_count <= 1:
        problems.append(f"decode stopped after {trace.frame_count} frame")
    if trace.frame_count != want:
        problems.append(f"{trace.frame_count} frames, expected the forced {want}")
    if not trace.truncated:
        problems.append("decode not marked truncated")
    for key in ("y", "z", "stop_logits"):
        if not np.all(np.isfinite(getattr(trace, key))):
            problems.append(f"non-finite {key}")
    problems += alignment_problems(trace.alignment, n, trace.frame_count)
    if reference_digest is not None and digest != reference_digest:
        problems.append("output differs from the first pass over this input")
    return problems


def _guarded(gate, label, op):
    """Run op(); an exception counts as a failed operation. Returns op's
    result or None."""
    try:
        return op()
    except Exception as exc:  # the gate counts it; the run goes on
        traceback.print_exc()
        gate.record(label, [f"{type(exc).__name__}: {exc}"])
        return None


# -- per-layer instrumentation ------------------------------------------------------

LAYER_TARGETS = (
    (seq2seq, "train", "seq2seq.train"),
    (seq2seq, "teacher_forced", "seq2seq.teacher_forced"),
    (seq2seq, "synthesize", "seq2seq.synthesize"),
    (seq2seq, "validation_metrics", "seq2seq.validation_metrics"),
    (seq2seq, "save_checkpoint", "seq2seq.save_checkpoint"),
    (fileio, "save_tensor_table", "fileio.save_tensor_table"),
    (seq2seq, "encode", "seq2seq.encode"),
    (seq2seq, "encoder_latents", "seq2seq.encoder_latents"),
    (seq2seq, "decoder_step", "seq2seq.decoder_step"),
    (seq2seq, "prenet_double_feed", "seq2seq.prenet_double_feed"),
    (seq2seq, "initial_attention", "seq2seq.initial_attention"),
    (seq2seq, "postnet", "seq2seq.postnet"),
    (seq2seq, "spectral_loss", "seq2seq.spectral_loss"),
    (seq2seq, "stop_loss", "seq2seq.stop_loss"),
    (align, "augmented_step", "align.augmented_step"),
    (ad, "lstm_step", "autodiff.lstm_step"),
    (ad.Tensor, "backward", "autodiff.Tensor.backward"),
    (ad.SGD, "step", "autodiff.SGD.step"),
    (prosody.ProsodyPredictor, "predict", "prosody.ProsodyPredictor.predict"),
)
UNIT = "bench.unit"


def layer_tracer():
    tracer = Tracer(node_probe=_tensor_id_probe)
    missing = [name for owner, attr, name in LAYER_TARGETS if not tracer.add(owner, attr, name)]
    return tracer, missing


def layer_metrics(summary, setup_summary, missing, frames, symbols, overhead_frac, extra):
    """Per-layer figures from one traced run.

    'per frame' is per frame counted by the workload's frames_per_s, so that
    the per-frame figures of all spans, GC and the unattributed remainder
    add up to the traced time per frame. ms figures are net of GC pauses;
    self_ms also excludes child spans.
    """
    absent = set(missing)

    def s(name):
        return summary.get(name, {"calls": 0, "wall_s": 0.0, "self_s": 0.0, "gc_s": 0.0, "nodes": 0})

    def ms(name, per, self_time=False):
        if name in absent:
            return None
        rec = s(name)
        secs = rec["self_s"] if self_time else rec["wall_s"] - rec["gc_s"]
        return 1000.0 * secs / per if per else 0.0

    def nodes(name, per):
        if name in absent or s(name)["nodes"] is None:
            return None
        return s(name)["nodes"] / per if per else 0.0

    lstm = s("autodiff.lstm_step")
    loss_calls = s("seq2seq.spectral_loss")["calls"]
    loss_ms = None if {"seq2seq.spectral_loss", "seq2seq.stop_loss"} & absent else (
        1000.0 * sum(s(n)["wall_s"] - s(n)["gc_s"] for n in ("seq2seq.spectral_loss", "seq2seq.stop_loss"))
        / loss_calls if loss_calls else 0.0)
    tf_nodes, vm_nodes = s("seq2seq.teacher_forced")["nodes"], s("seq2seq.validation_metrics")["nodes"]
    backward = s("autodiff.Tensor.backward")
    if backward["calls"] == 0:
        us_per_node = 0.0
    elif tf_nodes is None or vm_nodes is None or "autodiff.Tensor.backward" in absent:
        us_per_node = None
    else:
        us_per_node = 1e6 * (backward["wall_s"] - backward["gc_s"]) / (tf_nodes - vm_nodes)
    sgd = s("autodiff.SGD.step")
    ckpt = s("seq2seq.save_checkpoint")
    predict = s("prosody.ProsodyPredictor.predict")
    gen = setup_summary.get("synthdata.generate_corpus")
    extract = setup_summary.get("prosody.extract")
    unit = s(UNIT)
    gc_s = unit["gc_s"]
    m = {
        "seq2seq.decoder_step.self_ms_per_frame": (ms("seq2seq.decoder_step", frames, True), "ms"),
        "seq2seq.decoder_step.nodes_per_frame": (nodes("seq2seq.decoder_step", frames), "count"),
        "seq2seq.initial_attention.ms_per_frame": (ms("seq2seq.initial_attention", frames), "ms"),
        "seq2seq.initial_attention.nodes_per_frame": (nodes("seq2seq.initial_attention", frames), "count"),
        "align.augmented_step.ms_per_frame": (ms("align.augmented_step", frames), "ms"),
        "align.augmented_step.nodes_per_frame": (nodes("align.augmented_step", frames), "count"),
        "autodiff.lstm_step.ms_per_call": (ms("autodiff.lstm_step", lstm["calls"]), "ms"),
        "autodiff.lstm_step.calls_per_frame": (
            None if "autodiff.lstm_step" in absent else lstm["calls"] / frames, "count"),
        "seq2seq.prenet_double_feed.ms_per_frame": (ms("seq2seq.prenet_double_feed", frames), "ms"),
        "seq2seq.postnet.ms_per_frame": (ms("seq2seq.postnet", frames), "ms"),
        "seq2seq.loss.ms_per_utt": (loss_ms, "ms"),
        "seq2seq.encode.ms_per_symbol": (ms("seq2seq.encode", symbols), "ms"),
        "seq2seq.encode.nodes_per_symbol": (nodes("seq2seq.encode", symbols), "count"),
        "seq2seq.encoder_latents.ms_per_symbol": (ms("seq2seq.encoder_latents", symbols), "ms"),
        "seq2seq.teacher_forced.self_ms_per_frame": (ms("seq2seq.teacher_forced", frames, True), "ms"),
        "seq2seq.synthesize.self_ms_per_frame": (ms("seq2seq.synthesize", frames, True), "ms"),
        "seq2seq.train.self_ms_per_frame": (ms("seq2seq.train", frames, True), "ms"),
        "autodiff.Tensor.backward.ms_per_frame": (ms("autodiff.Tensor.backward", frames), "ms"),
        "autodiff.Tensor.backward.us_per_node": (us_per_node, "us"),
        "autodiff.SGD.step.ms_per_call": (ms("autodiff.SGD.step", sgd["calls"]), "ms"),
        "seq2seq.validation_metrics.ms_per_frame": (ms("seq2seq.validation_metrics", frames), "ms"),
        "seq2seq.save_checkpoint.ms_per_call": (ms("seq2seq.save_checkpoint", ckpt["calls"]), "ms"),
        "seq2seq.save_checkpoint.bytes": (extra.get("checkpoint_bytes", 0), "bytes"),
        "prosody.ProsodyPredictor.predict.ms_per_utt": (
            ms("prosody.ProsodyPredictor.predict", predict["calls"]), "ms"),
        "synthdata.generate_corpus.ms_per_utt": (
            None if gen is None else 1000.0 * (gen["wall_s"] - gen["gc_s"]) / extra["pool_utts"], "ms"),
        "prosody.extract.ms_per_utt": (
            0.0 if extract is None else 1000.0 * (extract["wall_s"] - extract["gc_s"]) / extra["extract_utts"], "ms"),
        "runtime.gc.pause_ms_per_frame": (1000.0 * gc_s / frames, "ms"),
        "runtime.gc.gen2_per_kframe": (1000.0 * extra["gen2"] / frames, "count"),
        "trace.overhead_frac": (overhead_frac, "ratio"),
        "trace.unattributed_frac": (unit["self_s"] / unit["wall_s"] if unit["wall_s"] else 0.0, "ratio"),
    }
    return m


def attribution(summary):
    """(name, self seconds, share of traced wall) for every span name, plus
    GC, summing to the wall time of the traced units."""
    wall = summary[UNIT]["wall_s"]
    rows = [(name, rec["self_s"], rec["self_s"] / wall) for name, rec in summary.items() if name != UNIT]
    rows.sort(key=lambda r: -r[1])
    gc_s = summary[UNIT]["gc_s"]
    rows.append(("runtime.gc (pauses)", gc_s, gc_s / wall))
    rows.append(("unattributed (benchmark glue)", summary[UNIT]["self_s"], summary[UNIT]["self_s"] / wall))
    return wall, rows


# -- workloads ---------------------------------------------------------------------


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_train(mode, seed, seconds, trace, out_dir):
    """train_aug / train_plain: seq2seq.train repeated on one seeded corpus."""
    gate = Gate()
    report = {}
    setup_times = []
    if trace:
        setup_summary, (corpus, table, cfg) = traced_setup(lambda: setup_train(seed))
    else:
        corpus, table, cfg = sampled(lambda: setup_train(seed), setup_times)
    train_frames = sum(u.features.shape[0] for u in corpus.split("train")) * cfg.epochs
    reference = None

    with tempfile.TemporaryDirectory(dir=out_dir) as ckpt_dir:

        def one_repeat(label, tracer):
            """One call of train(); returns its wall time, or None if it raised."""

            def op():
                nonlocal reference
                Path(ckpt_dir, "checkpoint.bin").unlink(missing_ok=True)
                gc.collect()  # start each repeat from the same heap and GC counters
                t0 = time.perf_counter()
                with tracer.active(), tracer.span(UNIT):
                    result = seq2seq.train(corpus, table, cfg, attention_mode=mode, out_dir=ckpt_dir)
                wall = time.perf_counter() - t0
                gate.record(label, training_problems(result, reference, corpus, table, cfg, mode, ckpt_dir))
                if reference is None and result.history:
                    reference = (result.history[-1]["val_loss"], result.history[-1]["val_entropy"])
                return wall

            return _guarded(gate, label, op)

        start = time.perf_counter()
        if not trace:
            walls, utt_ms, unit_times = [], [], []
            # at least two repeats, to check determinism, and enough for the p90
            min_repeats = max(2, math.ceil(MIN_LATENCY_SAMPLES / len(corpus.utterances)))
            while another_unit(start, seconds, unit_times, min_repeats):
                for _ in range(SETUPS_PER_REPEAT):
                    sampled(lambda: setup_train(seed), setup_times)
                timer = Tracer()
                timer.add(seq2seq, "teacher_forced", "utt")
                t0 = time.perf_counter()
                wall = one_repeat(f"repeat {len(unit_times)}", timer)
                unit_times.append(time.perf_counter() - t0)
                if wall is not None:
                    walls.append(wall)
                    utt_ms += [1000.0 * d for d in timer.durations("utt")]
            if not walls:
                raise RuntimeError("train: every repeat failed")
            metrics = {
                "setup_s": (statistics.median(setup_times), "s"),
                "frames_per_s": (statistics.median(train_frames / w for w in walls), "1/s"),
                "utt_ms_p50": (percentile(utt_ms, 50), "ms"),
                "utt_ms_p90": (percentile(utt_ms, 90), "ms"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
            }
            report["samples"] = {"repeats": len(walls), "utterance_passes": len(utt_ms), "setups": len(setup_times),
                                 "train_frames_per_repeat": train_frames}
            if reference is not None:
                report["quality"] = {"val_loss": reference[0], "val_entropy": reference[1]}
            return metrics, gate, report

        tracer, missing = layer_tracer()
        untraced, traced, unit_times = [], [], []
        while another_unit(start, seconds, unit_times, 1):
            t0 = time.perf_counter()
            base = one_repeat(f"repeat {len(unit_times)}", Tracer(gc_pauses=False))
            with_trace = one_repeat(f"traced repeat {len(unit_times)}", tracer)
            unit_times.append(time.perf_counter() - t0)
            if base is not None and with_trace is not None:
                untraced.append(base)
                traced.append(with_trace)
        if not traced:
            raise RuntimeError("train: every traced repeat failed")
        ckpt_bytes = (Path(ckpt_dir) / "checkpoint.bin").stat().st_size
    frames = train_frames * len(traced)
    symbols = sum(len(u.symbols) for u in corpus.utterances) * cfg.epochs * len(traced)
    summary = tracer.summary()
    metrics = layer_metrics(summary, setup_summary, missing, frames, symbols, sum(traced) / sum(untraced) - 1.0, {
        "checkpoint_bytes": ckpt_bytes, "gen2": tracer.gc_collections[2],
        "pool_utts": TRAIN_POOL, "extract_utts": len(corpus.utterances)})
    report["samples"] = {"traced_repeats": len(traced), "frames": frames}
    report["attribution"] = attribution(summary)
    report["spans"] = summary
    return metrics, gate, report


def run_synth(seed, seconds, trace, out_dir):
    """synth_long: predictor plus forced-length augmented synthesis."""
    gate = Gate()
    report = {}
    setup_times = []
    if trace:
        setup_summary, (inputs, cfg, params, predictor) = traced_setup(lambda: setup_synth(seed))
    else:
        inputs, cfg, params, predictor = sampled(lambda: setup_synth(seed), setup_times)
    digests = [None] * len(inputs)

    def one_utt(i, tracer):
        """Predict and synthesise input i; returns (seconds, frames), or None
        if it raised."""

        def op():
            symbols = inputs[i]
            t0 = time.perf_counter()
            with tracer.active(), tracer.span(UNIT):
                latents = seq2seq.encoder_latents(params, symbols)
                norm = predictor.predict(latents.data)
                out = seq2seq.synthesize(params, cfg, symbols, norm.as_array(), "augmented")
            wall = time.perf_counter() - t0
            digest = hashlib.blake2b(out.z.tobytes(), digest_size=16).digest()
            gate.record(f"utterance {i}", synthesis_problems(out, len(symbols), cfg, digest, digests[i]))
            if digests[i] is None:
                digests[i] = digest
            return wall, out.frame_count

        return _guarded(gate, f"utterance {i}", op)

    start = time.perf_counter()
    if not trace:
        utt_s, frames, pass_times = [], 0, []
        while another_unit(start, seconds, pass_times, 1):
            gc.collect()  # start each pass from the same heap and GC counters
            t0 = time.perf_counter()
            for i in range(len(inputs)):
                if i % SETUP_EVERY == 0:
                    sampled(lambda: setup_synth(seed), setup_times)
                done = one_utt(i, Tracer(gc_pauses=False))
                if done is not None:
                    utt_s.append(done[0])
                    frames += done[1]
            pass_times.append(time.perf_counter() - t0)
        if not utt_s:
            raise RuntimeError("synth: every utterance failed")
        utt_ms = [1000.0 * s for s in utt_s]
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "frames_per_s": (frames / sum(utt_s), "1/s"),
            "utt_ms_p50": (percentile(utt_ms, 50), "ms"),
            "utt_ms_p90": (percentile(utt_ms, 90), "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        report["samples"] = {"passes": len(pass_times), "utterances": len(utt_ms), "frames": frames,
                             "setups": len(setup_times)}
        return metrics, gate, report

    tracer, missing = layer_tracer()
    untraced = traced = 0.0
    frames = symbols = 0
    unit_times = []
    for i in range(len(inputs)):
        if not another_unit(start, seconds, unit_times, 1):
            break
        t0 = time.perf_counter()
        base = one_utt(i, Tracer(gc_pauses=False))
        with_trace = one_utt(i, tracer)
        if base is not None and with_trace is not None:
            untraced += base[0]
            traced += with_trace[0]
            frames += with_trace[1]
            symbols += len(inputs[i])
        unit_times.append(time.perf_counter() - t0)
    if not frames:
        raise RuntimeError("synth: every traced utterance failed")
    summary = tracer.summary()
    metrics = layer_metrics(summary, setup_summary, missing, frames, symbols, traced / untraced - 1.0, {
        "gen2": tracer.gc_collections[2], "pool_utts": SYNTH_POOL})
    report["samples"] = {"traced_utterances": summary[UNIT]["calls"], "frames": frames}
    report["attribution"] = attribution(summary)
    report["spans"] = summary
    return metrics, gate, report


WORKLOADS = {
    "train_aug": lambda seed, seconds, trace, out: run_train("augmented", seed, seconds, trace, out),
    "train_plain": lambda seed, seconds, trace, out: run_train("plain", seed, seconds, trace, out),
    "synth_long": run_synth,
}


def machine_info():
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }
