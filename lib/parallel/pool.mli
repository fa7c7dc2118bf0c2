(** Minimal domain-based fan-out for embarrassingly parallel sweeps.

    Work is cut into a {e fixed} number of chunks claimed through an
    atomic counter, so results depend only on the chunk decomposition —
    never on how many domains happened to run. This is what keeps the
    experiment pipeline bit-reproducible whatever the machine size.

    Work runs on a {e persistent} pool ({!t}): helper domains are
    spawned once and parked on a condition variable between jobs, so
    campaigns running thousands of small fan-outs pay spawn/join once.
    Callers that pass no pool use the process-wide {!shared} one; a
    caller that pins a domain count creates its own with {!create}. *)

val default_domains : unit -> int
(** [max 1 recommended_domain_count]: the total number of domains that
    run a job, the calling domain included (see {!create}). Every core
    takes part and the caller is one of them, so on a 2-core host the
    default pool has one helper domain. The chunk decomposition, not the
    domain count, fixes every result, so this choice changes no output
    bytes. *)

type t
(** A persistent worker pool. *)

val create : ?domains:int -> unit -> t
(** [create ()] spawns [domains − 1] helper domains (default
    {!default_domains}) that park between jobs. The calling domain
    participates in every job and counts as one of the [domains], so a
    pool of [domains:1] runs inline. *)

val size : t -> int
(** Number of domains that participate in a job (helpers + caller). *)

val shutdown : t -> unit
(** Wake and join the helper domains. An in-flight job completes first;
    subsequent {!run} calls on the pool raise [Invalid_argument].
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
    state. The first exception raised by any chunk is re-raised after
    all workers have drained.

    Runs on [?pool], or on the {!shared} pool when none is given. A
    nested [run] from inside a chunk always drains inline on the calling
    domain.

    While any {!Obs} sink is enabled, each chunk is recorded as a
    ["pool.chunk"] span and the run feeds the [pool.chunks],
    [pool.busy_us] and [pool.runs] counters plus the [pool.imbalance]
    gauge (max worker busy time over the mean across active workers).
    With sinks disabled the only cost is one atomic load per run.

    Each chunk also carries the ["pool.chunk"] [Fault] probe: an
    injected exception is indistinguishable from a chunk raising — the
    first failure is re-raised in the caller after all workers drain,
    and a persistent pool's parked domains are unaffected. *)
