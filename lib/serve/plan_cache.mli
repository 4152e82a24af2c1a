(** The shared, domain-safe query-plan cache.

    Lowered {!Duel_core.Ir.expr} plans keyed by the query's
    normalized token stream, LRU-bounded, invalidated by the target's
    write-generation.  One cache may be shared by every shard of a
    sharded server: all table and LRU bookkeeping happens under an
    internal mutex, so concurrent hits, stores and evictions from
    different domains never tear state.

    Generation discipline is the caller's: pass the generation the
    plan was lowered under to {!store} and the {e current}
    generation to {!find}; a mismatch retires the entry ({!Stale}).
    Compilation itself should happen outside this module (and therefore
    outside the lock) — two domains racing to compile the same key both
    succeed, and the later {!store} replaces the earlier one. *)

type t

type outcome =
  | Hit of Duel_core.Ir.expr
      (** found, lowered under the generation asked about.  The plan is
          the shared master copy: {!Duel_core.Ir.clone} it before
          execution. *)
  | Stale  (** found but lowered under an older generation; removed *)
  | Absent

val create : int -> t
(** [create capacity].  A capacity [<= 0] disables the cache: {!find}
    always answers {!Absent} and {!store} is a no-op. *)

val enabled : t -> bool

val find : t -> key:string -> gen:int -> outcome

val store : t -> key:string -> gen:int -> Duel_core.Ir.expr -> int
(** Insert (replacing any entry under the same key) and evict the LRU
    entry beyond capacity; returns the number of entries evicted. *)

val resident : t -> int
(** Entries currently cached. *)
