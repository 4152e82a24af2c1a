(* The shared query-plan cache, factored out of the server so that N
   domain shards can share one table.

   Every public operation holds the internal mutex for its whole
   critical section, so concurrent lookups, stores and evictions from
   different domains never tear the table or the LRU bookkeeping.  The
   stored lowered {!Duel_core.Ir.expr} plans are constants from the
   cache's point of view: a user clones them ({!Duel_core.Ir.clone})
   before execution, and clones only read the master copy, so handing
   the same plan to two domains at once is safe.

   Compilation deliberately happens {e outside} the lock (it can take
   target round-trips to intern string literals); two shards racing to
   compile the same key both succeed and the second [store] simply
   replaces the first — wasted work, never wrong results. *)

module Ir = Duel_core.Ir

type entry = {
  e_plan : Ir.expr;
  e_gen : int;  (* target write-generation the plan was lowered under *)
  mutable e_tick : int;  (* LRU clock stamp *)
}

type t = {
  capacity : int;
  lock : Mutex.t;
  tbl : (string, entry) Hashtbl.t;
  mutable tick : int;
}

type outcome = Hit of Ir.expr | Stale | Absent

let create capacity =
  {
    capacity;
    lock = Mutex.create ();
    tbl = Hashtbl.create (max 1 capacity);
    tick = 0;
  }

let enabled t = t.capacity > 0

let resident t = Mutex.protect t.lock (fun () -> Hashtbl.length t.tbl)

(* Look up [key] compiled under the current generation [gen].  A stale
   entry (compiled under an older generation) is removed under the same
   lock acquisition that found it, so no other domain can hit it in
   between. *)
let find t ~key ~gen =
  if not (enabled t) then Absent
  else
    Mutex.protect t.lock (fun () ->
        t.tick <- t.tick + 1;
        match Hashtbl.find_opt t.tbl key with
        | Some e when e.e_gen = gen ->
            e.e_tick <- t.tick;
            Hit e.e_plan
        | Some _ ->
            Hashtbl.remove t.tbl key;
            Stale
        | None -> Absent)

(* Insert (or replace) under the lock, then evict the least recently
   used entry if the table overflowed.  Returns the number of entries
   evicted (0 or 1). *)
let store t ~key ~gen plan =
  if not (enabled t) then 0
  else
    Mutex.protect t.lock (fun () ->
        t.tick <- t.tick + 1;
        Hashtbl.replace t.tbl key { e_plan = plan; e_gen = gen; e_tick = t.tick };
        if Hashtbl.length t.tbl > t.capacity then begin
          let victim =
            Hashtbl.fold
              (fun k e acc ->
                match acc with
                | Some (_, lru) when lru.e_tick <= e.e_tick -> acc
                | _ -> Some (k, e))
              t.tbl None
          in
          match victim with
          | Some (k, _) ->
              Hashtbl.remove t.tbl k;
              1
          | None -> 0
        end
        else 0)
