(** Deterministic fault injection for crash-safety testing.

    Probe points ([{!cut} "campaign.write"], ["runner.eval"],
    ["pool.chunk"], ["service.job"], …) are compiled into the production
    paths at the boundaries where a crash, an I/O error or a stall would
    hurt: checkpoint writes, per-case evaluation, pool chunk execution,
    a served job's evaluation. With
    no spec configured a probe is a single atomic load and a branch —
    the same zero-cost-off discipline as [Obs] — so bit-reproducibility
    and performance of normal runs are unaffected.

    A fault {e spec} arms probes from tests or the [repro] CLI
    ([--fault-spec]). The grammar is

    {v
    spec    ::= clause (';' clause)*
    clause  ::= point ':' action ('@' N)? (':' key '=' value)*
    action  ::= 'fail' | 'delay' | 'hold'
    v}

    where [point] names a probe, [@N] makes hit [N] (1-based, default 1)
    the first eligible one, and the options are:
    - [count=K] — fire on at most [K] eligible hits (default 1);
    - [p=P] — fire each eligible hit with probability [P] (default 1),
      drawn from a private SplitMix64 stream so firings are a pure
      function of the spec;
    - [seed=S] — seed of that stream (default 0);
    - [ms=M] — delay duration in milliseconds (default 10; [delay] only).

    A [hold] stalls the probing domain until {!release} names its point
    (or {!configure} or {!reset} replaces the spec), so a test can keep
    one domain at a known point while it checks what the others do.
    Armed from the CLI it stalls for the life of the process.

    Examples: ["runner.eval:fail@1"] fails the first case evaluation
    once; ["campaign.write:fail:count=3"] fails the first three
    checkpoint writes; ["pool.chunk:delay:p=0.01:seed=7:ms=5"] delays
    ~1% of pool chunks by 5 ms. *)

exception Injected of string
(** Raised by a firing [fail] clause; the payload is the probe point. *)

val enabled : unit -> bool
(** Whether any spec is armed. *)

val configure : spec:string -> unit
(** Parse [spec], replace any previous configuration, reset hit counts
    and arm the probes. Raises [Invalid_argument] on a malformed spec
    (unknown action, bad numbers, empty spec). *)

val reset : unit -> unit
(** Disarm every probe and clear clauses and hit counts. Probes return
    to their zero-cost no-op behaviour. *)

val cut : string -> unit
(** [cut point] is a probe. Disabled: a no-op. Enabled: counts the hit
    and fires the first matching eligible clause — [fail] raises
    {!Injected}, [delay] sleeps, [hold] waits for {!release}. Hit accounting is process-wide and
    mutex-protected, so probes may sit on concurrent paths (pool
    chunks); eligibility is deterministic given the spec and the total
    hit order. *)

val release : string -> unit
(** Let every current and later [hold] of [point] go on, until the next
    {!configure} or {!reset}. *)

val hits : string -> int
(** Observed hit count for [point] since the last {!configure}/{!reset}
    (0 while disabled). For tests. *)
