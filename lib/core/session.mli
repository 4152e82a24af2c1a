(** A DUEL session: the [duel] command.

    Owns the environment (aliases persist across commands, as in the
    original), parses command strings, lowers the AST to slotted IR
    ({!Lower}), drives the selected evaluation engine, and formats each
    produced value as the paper does — [symbolic = value] with
    [-->a[[n]]] compression — or a structured error message ("Illegal
    memory reference in ...: sym = lvalue 0x..").
*)

type engine =
  | Seq_engine  (** the reference recursive-[Seq.t] evaluator *)
  | Sm_engine  (** the explicit state-machine evaluator *)

type t = {
  env : Env.t;
  mutable engine : engine;
  mutable max_values : int;  (** cap on printed values per command; 0 = no cap *)
  mutable lower : bool;
      (** [true] (default): lower with resolution slots; [false]: the
          ablation — identical IR with every slot pinned dynamic
          ([set lower off]) *)
}

val create : ?engine:engine -> Duel_dbgi.Dbgi.t -> t
(** Wires the environment's external-state probe to the data cache's
    coherence probe when [dbg] was wrapped with one, so slot caches see
    the same store-generation the dcache snoops. *)

val parse : t -> string -> Ast.expr
(** @raise Parser.Error / Lexer.Error *)

val compile : t -> Ast.expr -> Ir.expr
(** The lowering step, honouring the session's [lower] flag. *)

val eval : t -> Ast.expr -> Value.t Seq.t
(** [compile] then evaluate with the session's engine (no printing). *)

val eval_ir : t -> Ir.expr -> Value.t Seq.t
(** Evaluate already-lowered IR (re-running a compiled command hits the
    slots populated by earlier runs). *)

val drive : t -> Ast.expr -> int
(** Evaluate and discard all values (the benchmark path: no display
    formatting); returns the number of values produced. *)

val drive_ir : t -> Ir.expr -> int
(** [drive] for pre-compiled IR — benchmarks separate the one-time
    lowering cost from steady-state evaluation with this. *)

val format_value : t -> Value.t -> string
(** One output line: [symbolic = value]. *)

val exec : t -> string -> string list
(** The [duel] command: parse, lower, evaluate, format.  All errors
    (lexical, syntax, evaluation) come back as output lines rather than
    exceptions; the scope stack is restored afterwards, whatever
    happened. *)

val exec_ir : t -> Ir.expr -> string list
(** [exec] for already-lowered IR (the serve layer's plan cache): runs
    it on the session's engine with the same output and error contract
    as [exec] on its source text.  Share a tree across sessions only via
    {!Ir.clone} — its name slots are per-environment state. *)

val exec_string : t -> string -> string
(** [exec] joined with newlines. *)

val cache_stats : t -> string list
(** Human-readable {!Duel_dbgi.Dcache} counters for the session's
    debugger interface (the [info cache] command), or a single
    "memory cache: off" line when the interface is uncached.  [exec] and
    [drive] flush the cache's coalesced writes when a command finishes,
    so memory is consistent between commands. *)

val prefetch_stats : t -> string list
(** Human-readable {!Duel_dbgi.Prefetch} counters for the session's
    interface (the [info prefetch] command): speculative lines issued /
    useful / wasted, swallowed speculative faults, span reads and engine
    hints — or a single "prefetch: off" line when no predictor is
    attached. *)

val set_prefetch : t -> bool -> bool
(** Enable or disable speculation on the session's interface (the
    [set prefetch on|off] command), attaching a predictor first if the
    interface is cached but was started without one.  [false] when there
    is no data cache to speculate into. *)

val lower_stats : t -> string list
(** Human-readable resolution-cache counters (the [info lower] command):
    whether lowering is on, plus slot hit/miss/stale/dynamic counts from
    {!Env.lstats}. *)
