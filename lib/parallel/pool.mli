(** Minimal domain-based fan-out for embarrassingly parallel sweeps.

    Work is cut into a {e fixed} number of chunks claimed through an
    atomic counter, so results depend only on the chunk decomposition —
    never on how many domains happened to run. This is what keeps the
    experiment pipeline bit-reproducible whatever the machine size.

    Work runs on a {e persistent} pool ({!t}): helper domains are
    spawned once and parked on a condition variable between fan-outs,
    so campaigns running thousands of small fan-outs pay spawn/join
    once. Callers that pass no pool use the process-wide {!shared} one;
    a caller that pins a domain count creates its own with {!create}.

    A pool takes {e concurrent callers}: several domains may each be
    inside {!run} on the same pool at once. Each caller drains its own
    fan-out, and the helpers claim chunks from the oldest running
    fan-out that still has unclaimed ones, so an idle helper lends
    itself to whichever caller has work. A caller waits only for the
    chunks of its own fan-out.

    A pool may also have a task source ([?idle] on {!create}): a helper
    that finds no chunk to claim runs the next task instead, and a task
    that fans out is one more concurrent caller. A server's evaluation
    domains are such a pool's helpers: each runs a job as a task and
    helps the other jobs' fan-outs between its own, so the jobs and
    their fan-outs share one fixed set of domains. *)

val default_domains : unit -> int
(** [max 1 recommended_domain_count]: the total number of domains that
    run a job, the calling domain included (see {!create}). Every core
    takes part and the caller is one of them, so on a 2-core host the
    default pool has one helper domain. The chunk decomposition, not the
    domain count, fixes every result, so this choice changes no output
    bytes. *)

type t
(** A persistent worker pool. *)

val create : ?domains:int -> ?idle:(unit -> (unit -> unit) option) -> unit -> t
(** [create ()] spawns [domains − 1] helper domains (default
    {!default_domains}) that park between jobs. The calling domain
    participates in every job and counts as one of the [domains], so a
    pool of [domains:1] runs inline.

    With [~idle], a helper that finds no unclaimed chunk calls [idle ()]
    and runs the task it returns on its own domain, or parks on [None];
    chunks always come before tasks. The callers are then the helpers
    themselves, so all [domains] are helpers. [idle] is called under the
    pool's lock: it must be quick and must not call into the pool. A
    task must not raise. After making a task ready, call {!wake}. A
    {!run} from inside a task fans out on this pool even when it names
    no pool. *)

val size : t -> int
(** Number of domains that run a job: the helpers plus the caller, or
    the helpers alone for a pool with [~idle]. *)

val wake : t -> unit
(** Wake one parked helper so that it asks [idle] again. *)

val shutdown : t -> unit
(** Wake and join the helper domains. Each helper finishes the chunks it
    has claimed; a caller already inside {!run} drains what is left of
    its own fan-out on its own domain, so every in-flight run completes.
    Subsequent {!run} calls on the pool raise [Invalid_argument].
    Idempotent. Must not be called from inside a pool job. *)

val shared : unit -> t
(** The process-wide pool, created on first use and shut down via a
    single [at_exit] hook (registered exactly once, however many times
    the pool is respawned). If the current shared pool has been
    {!shutdown} — e.g. across a service's serve → drain → serve cycle —
    the next call transparently spawns a replacement, so holders of
    [shared ()] results should re-fetch rather than cache across a
    shutdown. *)

val run : ?pool:t -> chunks:int -> (int -> unit) -> unit
(** [run ~chunks f] calls [f c] exactly once for every
    [c ∈ \[0, chunks)], distributing chunks over worker domains (the
    calling domain participates). [f] must only write to chunk-private
    state. The first exception raised by any chunk is re-raised in this
    caller, after every chunk of its fan-out has run; other callers'
    fan-outs on the same pool are unaffected.

    Runs on [?pool]; when none is given, on the pool whose task the
    calling domain runs, else on the {!shared} pool. A nested [run] from
    inside a chunk always drains inline on the calling domain.

    While any {!Obs} sink is enabled, each chunk is recorded as a
    ["pool.chunk"] span and the run feeds the [pool.chunks],
    [pool.busy_us] and [pool.runs] counters plus the [pool.imbalance]
    gauge (max worker busy time over the mean across active workers).
    With sinks disabled the only cost is one atomic load per run.

    Each chunk also carries the ["pool.chunk"] [Fault] probe: an
    injected exception is indistinguishable from a chunk raising — the
    first failure is re-raised in its own caller after the fan-out's
    chunks have run, and a persistent pool's helper domains are
    unaffected. *)
