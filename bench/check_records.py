"""Check the committed perfbench records: each BENCH file's fields,
every workload's parent/change pairs, and the claim the record makes.

    python3 bench/check_records.py [DIR]

reads BENCH_arrival.json, BENCH_sweep.json, BENCH_fft.json,
BENCH_spline.json, BENCH_anneal.json, BENCH_fold.json, BENCH_cores.json
and BENCH_runners.json from DIR
(default: the current directory), prints one line per record and exits
1 if any assertion failed.
"""

import json
import os
import sys

VERDICTS = ('better', 'no worse', 'worse', 'unresolved')


def has_fields(d, fields, where=''):
    for field in fields:
        assert field in d, f'{where}missing field {field}'


def check_workloads(d, fields, ordered=False):
    """Every workload's metrics carry parent and change quartiles and a
    verdict. A record whose workloads count `failed` runs also keeps each
    side's runs and the pair wins, failed no run (nor broke a reference
    digest, when it records `correct`) and reads no verdict `worse`.
    `ordered` also requires q1 <= median <= q3 on each side."""
    strict = 'failed' in fields
    for name, w in d['workloads'].items():
        has_fields(w, ('workload', 'seed', 'pairs') + fields + ('metrics',), f'{name}: ')
        if 'correct' in fields:
            assert w['failed'] == 0 and w['correct'] is True, name
        elif strict:
            assert w['failed'] == 0, (name, w['failed'])
        for metric, m in w['metrics'].items():
            for side in ('parent', 'change'):
                assert set(m[side]) == {'median', 'q1', 'q3'}, (name, metric, side)
                if ordered:
                    assert m[side]['q1'] <= m[side]['median'] <= m[side]['q3'], (name, metric, side)
                if strict:
                    assert len(m[side + '_runs']) == w['pairs'], (name, metric, side)
            if strict:
                assert 0 <= m['pair_wins'] <= w['pairs'], (name, metric)
            assert m['verdict'] in VERDICTS, m
            if strict:
                assert m['verdict'] != 'worse', (name, metric)


def held_out_agrees(d, key):
    """The held-out seed's median must not contradict the claim."""
    t = d['workloads'][key]['metrics']['throughput_per_s']
    assert t['change']['median'] > t['parent']['median'], t


def kernels_paired(d, names):
    for name in names:
        k = d['kernels'][name]
        assert k['parent_ns'] and len(k['parent_ns']) == len(k['change_ns']), name
        assert k['parent_median_ns'] > 0 and k['change_median_ns'] > 0, name


def arrival(d):
    """The arrival-sum memo of the classical full sweep."""
    has_fields(d, ('commit', 'parent', 'nproc', 'ocaml', 'command', 'run_seconds',
                   'seeds', 'workloads', 'arrival_hits'))
    check_workloads(d, ())
    claim = d['workloads']['campaign_fig6_seed1']
    assert claim['pairs'] >= 10, claim['pairs']
    assert claim['metrics']['throughput_per_s']['verdict'] == 'better', claim
    for case, c in d['arrival_hits'].items():
        assert 0 < c['hits'] <= c['arrivals'], (case, c)
        assert abs(c['ratio'] - c['hits'] / c['arrivals']) < 1e-9, (case, c)


def sweep(d):
    """The pooled calibration pilot and the small sweep chunks."""
    has_fields(d, ('commit', 'parent', 'nproc', 'ocaml', 'command', 'run_seconds',
                   'seeds', 'chunk_sizes', 'workloads'))
    assert d['chunk_sizes']['pilot'] == 1, d['chunk_sizes']
    assert 1 <= d['chunk_sizes']['sweep'] <= 4, d['chunk_sizes']
    check_workloads(d, ('failed',))
    for key in ('campaign_fig6_seed1', 'campaign_fig6_seed2'):
        claim = d['workloads'][key]
        assert claim['metrics']['throughput_per_s']['verdict'] == 'better', (key, claim)
    assert d['workloads']['campaign_fig6_seed1']['pairs'] >= 10


def fft(d):
    """The C FFT kernel: per-kernel before/after times and perfbench pairs."""
    has_fields(d, ('commit', 'parent', 'nproc', 'ocaml', 'gcc', 'c_flags', 'command',
                   'run_seconds', 'seeds', 'kernels', 'branch_mix', 'workloads'))
    assert '-ffp-contract=off' in d['c_flags'], d['c_flags']
    kernels_paired(d, ('conv:packed-512x512', 'conv:packed-290x291',
                       'conv:overlap-add-540x40', 'conv:overlap-add-2048x17'))
    check_workloads(d, ('failed', 'correct'))
    claim = d['workloads']['campaign_fig6_seed1']
    assert claim['pairs'] >= 10, claim['pairs']
    t = claim['metrics']['throughput_per_s']
    assert t['pair_wins'] >= 9 and t['verdict'] == 'better', t
    held_out_agrees(d, 'campaign_fig6_seed2')


def spline(d):
    """The C density kernel: per-kernel before/after times, the max_cone
    buckets and perfbench pairs for every workload."""
    has_fields(d, ('commit', 'parent', 'nproc', 'ocaml', 'gcc', 'c_flags', 'command',
                   'run_seconds', 'seeds', 'kernels', 'max_cone', 'workloads'))
    assert '-ffp-contract=off' in d['c_flags'], d['c_flags']
    kernels_paired(d, ('dist:add-kpoint', 'dist:max-indep-64x64', 'dist:add-full-64x64',
                       'dist:trim-64', 'dist:resample-64', 'dist:spline-sample-64',
                       'dist:density-64'))
    # the two loops ported on their own kernel's evidence
    for name in ('dist:add-kpoint', 'dist:max-indep-64x64'):
        k = d['kernels'][name]
        assert k['change_median_ns'] < k['scan_and_density_only_median_ns'], k
    buckets = d['max_cone']['buckets']
    assert sum(b['moves'] for b in buckets) == d['max_cone']['moves'], buckets
    for b in buckets:
        assert b['moves'] == 0 or (b['half_ms'] > 0 and b['full_n_ms'] > 0), b
    for name in ('campaign_fig6_seed1', 'campaign_fig6_seed2', 'serve_mixed_seed1',
                 'anneal_search_seed1'):
        assert name in d['workloads'], f'missing workload {name}'
    check_workloads(d, ('failed', 'correct'))
    # the claim ran in batches of 10 pairs: all pairs together must be
    # won 9 times in 10, every batch too, and at least one batch must
    # read better under the benchmark's rule (the record explains why
    # the others read unresolved)
    claim = d['workloads']['campaign_fig6_seed1']
    assert claim['pairs'] >= 10, claim['pairs']
    t = claim['metrics']['throughput_per_s']
    assert t['pair_wins'] >= 0.9 * claim['pairs'], t
    assert t['change']['median'] > t['parent']['median'], t
    batches = claim['throughput_by_batch']
    assert sum(b['pairs'] for b in batches) == claim['pairs'], batches
    for b in batches:
        assert b['pairs'] >= 10 and b['pair_wins'] >= 0.9 * b['pairs'], b
        assert b['verdict'] != 'worse', b
    assert any(b['verdict'] == 'better' for b in batches), batches
    held_out_agrees(d, 'campaign_fig6_seed2')


def anneal(d):
    """Installed annealing probes and the session arrival-sum memo."""
    has_fields(d, ('commit', 'parent', 'nproc', 'ocaml', 'command', 'run_seconds',
                   'seeds', 'memo', 'gc', 'cone_costs', 'workloads'))
    m = d['memo']
    assert m['reeval_sum_hits'] > 0 and m['reeval_sum_misses'] > 0, m
    for side in ('parent', 'change'):
        g = d['gc'][side]
        for field in ('promoted_words_per_step', 'minor_words_per_step', 'top_heap_words'):
            assert g[field] > 0, (side, field)
    for row in d['cone_costs']:
        assert row['change_probe_ms'] < row['change_analyze_ms'], row
    check_workloads(d, ('failed', 'correct'))
    claim = d['workloads']['anneal_search_seed1']
    assert claim['pairs'] >= 10, claim['pairs']
    t = claim['metrics']['throughput_per_s']
    assert t['pair_wins'] >= 9 and t['verdict'] == 'better', t
    r = claim['metrics']['peak_rss_mb']
    assert r['change']['median'] <= 1.2 * r['parent']['median'], r
    held_out_agrees(d, 'anneal_search_seed2')


def fold(d):
    """The committed prefix maxima and priority moves probed through the
    session: perfbench pairs, probe work and heap per side."""
    has_fields(d, ('commit', 'parent', 'nproc', 'ocaml', 'command', 'run_seconds', 'seeds',
                   'pairs', 'claim', 'memory', 'probe_work', 'gc', 'gauss104', 'workloads'))
    check_workloads(d, ('failed', 'correct'), ordered=True)
    for name, w in d['workloads'].items():
        assert d['pairs'][name] == w['pairs'], name
    # the throughput claim is recorded with every batch of 10 pairs; it
    # is met only if each batch reads better
    claim = d['claim']
    assert len(claim['batches']) >= 2, claim
    for b in claim['batches']:
        w = d['workloads'][b['workload_key']]
        assert w['workload'] == 'anneal_search' and w['seed'] == 1, b
        assert w['pairs'] == b['pairs'] >= 10, b
        assert w['metrics']['throughput_per_s']['verdict'] == b['verdict'], b
    assert claim['met'] == all(b['verdict'] == 'better' for b in claim['batches']), claim
    held = d['workloads']['anneal_search_seed2']
    assert held['pairs'] >= 5, held['pairs']
    held_out_agrees(d, 'anneal_search_seed2')
    # the prefix maxima's memory stays within 15 % of peak RSS
    assert d['memory']['peak_rss_change_over_parent'] <= 1.15, d['memory']
    assert d['gauss104']['change']['median'] <= d['gauss104']['parent']['median'], d['gauss104']
    for side in ('parent', 'change'):
        p, g = d['probe_work'][side], d['gc'][side]
        for field in ('max_indep_per_probe', 'arrival_sum_misses_per_probe'):
            assert p[field] > 0, (side, field)
        for field in ('top_heap_words', 'promoted_words_per_step'):
            assert g[field] > 0, (side, field)
        assert len(d['gauss104'][side + '_runs_s']) >= 3, side
    pw = d['probe_work']
    assert pw['change']['max_indep_per_probe'] < pw['parent']['max_indep_per_probe'], pw
    # no arrival sum is computed that the parent did not compute
    assert (pw['change']['arrival_sum_misses_per_probe']
            <= pw['parent']['arrival_sum_misses_per_probe']), pw


def cores(d):
    """The shared pool on every core and signalled sync completion:
    serve_mixed pairs on the claim and a held-out seed, the two
    workloads that use neither (pinned pools), and the traced layers."""
    has_fields(d, ('commit', 'parent', 'nproc', 'ocaml', 'command', 'run_seconds', 'seeds',
                   'workloads', 'per_layer'))
    check_workloads(d, ('failed', 'correct'), ordered=True)
    claim = d['workloads']['serve_mixed_seed1']
    assert claim['pairs'] >= 10, claim['pairs']
    t = claim['metrics']['throughput_per_s']
    assert t['verdict'] == 'better' and t['pair_wins'] >= 0.9 * claim['pairs'], t
    assert d['workloads']['serve_mixed_seed2']['pairs'] >= 5
    held_out_agrees(d, 'serve_mixed_seed2')
    for name in ('campaign_fig6_seed1', 'anneal_search_seed1'):
        assert d['workloads'][name]['pairs'] >= 5, name
    # where the saving comes from: the eval stage and the poll
    layers = d['per_layer']['serve_mixed']
    for layer in ('service.stage_eval_p50_ms', 'serve_mixed.unattributed_ms'):
        assert layers[layer]['change']['median'] < layers[layer]['parent']['median'], layer


def runners(d):
    """A server's jobs run side by side on one pool of default_domains
    domains: serve_mixed pairs on the claim and a held-out seed, the two
    workloads that use neither concurrent callers nor the server, the
    threads per side and the traced queue stage."""
    has_fields(d, ('commit', 'parent', 'nproc', 'ocaml', 'command', 'run_seconds', 'seeds',
                   'warmup_runs', 'process_threads', 'workloads', 'per_layer'))
    check_workloads(d, ('failed', 'correct'), ordered=True)
    claim = d['workloads']['serve_mixed_seed1']
    assert claim['pairs'] >= 10, claim['pairs']
    t = claim['metrics']['throughput_per_s']
    assert t['verdict'] == 'better' and t['pair_wins'] >= 0.9 * claim['pairs'], t
    assert d['workloads']['serve_mixed_seed2']['pairs'] >= 5
    held_out_agrees(d, 'serve_mixed_seed2')
    for name in ('campaign_fig6_seed1', 'anneal_search_seed1'):
        assert d['workloads'][name]['pairs'] >= 5, name
    for side in ('parent', 'change'):
        for name in ('campaign_fig6', 'serve_mixed', 'anneal_search'):
            assert d['process_threads'][side][name] >= 1, (side, name)
    # where the saving comes from: a woken client's job no longer waits
    # behind the other connection's job
    layers = d['per_layer']['serve_mixed']
    for layer in ('service.stage_queue_p50_ms', 'service.stage_queue_p99_ms'):
        q = layers[layer]
        assert len(q['parent_runs']) == len(q['change_runs']) >= 4, layer
        assert q['change']['median'] < q['parent']['median'], layer


RECORDS = [('arrival', arrival), ('sweep', sweep), ('fft', fft), ('spline', spline),
           ('anneal', anneal), ('fold', fold), ('cores', cores), ('runners', runners)]


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else '.'
    failed = False
    for name, check in RECORDS:
        path = os.path.join(root, f'BENCH_{name}.json')
        try:
            with open(path) as f:
                check(json.load(f))
            print(f'{os.path.basename(path)} fields OK')
        except Exception as e:  # a missing key or file fails the record too
            failed = True
            print(f'{os.path.basename(path)}: FAILED {type(e).__name__}: {e}')
    sys.exit(1 if failed else 0)


if __name__ == '__main__':
    main()
