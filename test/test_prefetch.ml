(* The traversal prefetch planner, proven prefetch-blind: the engine
   corpus must be bit-identical with speculation on and off across all
   three engines over a packet-counting backend, the speculation ledger
   must always settle to [useful + wasted = issued], and mispredictions
   — wrong learned offsets, chases off a mapping edge, concurrent
   writes — must be harmless in every observable way except the
   counters. *)

open Support
module Session = Duel_core.Session
module Dbgi = Duel_dbgi.Dbgi
module Dcache = Duel_dbgi.Dcache
module Prefetch = Duel_dbgi.Prefetch
module Backend = Duel_backend.Backend
module Inferior = Duel_target.Inferior
module Scenarios = Duel_scenarios.Scenarios
module Memory = Duel_mem.Memory

let case = Support.case

(* ast = the unlowered walker, ir = the lowered walker, sm = the state
   machine: the engine paths whose [-->] traversals feed the predictor
   chase hints. *)
let engines =
  [
    ("ast", Session.Seq_engine, false);
    ("ir", Session.Seq_engine, true);
    ("sm", Session.Sm_engine, true);
  ]

(* One run over a spec-built backend: output lines, target stdout,
   framed packet count, and the settled speculation ledger (the cache is
   invalidated first so every still-speculative line resolves). *)
let run_spec ~spec ~engine ~lower query =
  match Backend.of_string spec with
  | Error m -> Alcotest.fail (spec ^ ": " ^ m)
  | Ok b ->
      Fun.protect ~finally:b.Backend.b_close (fun () ->
          let s = Session.create ~engine b.Backend.b_dbg in
          s.Session.lower <- lower;
          let lines = Session.exec s query in
          let out = Inferior.take_output b.Backend.b_inf in
          let packets = !(b.Backend.b_packets) in
          Dcache.invalidate b.Backend.b_dbg;
          let ledger =
            Option.map
              (fun st ->
                ( st.Prefetch.issued,
                  st.Prefetch.useful,
                  st.Prefetch.wasted ))
              (Prefetch.stats b.Backend.b_dbg)
          in
          (lines, out, packets, ledger))

(* The blind check: same query, same engine, prefetch on vs off; lines
   and stdout bit-identical, and the prefetching arm's ledger balances.
   The baseline arm must really be blind — no predictor attached. *)
let check_blind ~base ~query =
  List.iter
    (fun (name, engine, lower) ->
      let l0, o0, _, g0 =
        run_spec ~spec:(base ^ "+cache") ~engine ~lower query
      in
      let l1, o1, _, g1 =
        run_spec ~spec:(base ^ "+cache+prefetch") ~engine ~lower query
      in
      Alcotest.(check bool) (name ^ ": baseline is blind") true (g0 = None);
      Alcotest.(check (list string)) (name ^ ": lines blind to prefetch") l0 l1;
      Alcotest.(check string) (name ^ ": stdout blind to prefetch") o0 o1;
      match g1 with
      | None -> Alcotest.fail (name ^ ": prefetch arm has no predictor")
      | Some (issued, useful, wasted) ->
          Alcotest.(check int)
            (name ^ ": useful + wasted = issued")
            issued (useful + wasted))
    engines

let corpus_case query =
  case ("prefetch-blind: " ^ query) (fun () ->
      check_blind ~base:"rsp:all" ~query)

(* Error parity through the predictor: faulting chases (dangling tails,
   NULL heads, cycles) must format identically — the demand fault keeps
   its exact attribution no matter what the walker speculated. *)
let faulty_case query =
  case ("prefetch-blind faulty: " ^ query) (fun () ->
      check_blind ~base:"rsp:faulty" ~query)

let prop_blind =
  QCheck2.Test.make
    ~name:"random expressions are prefetch-blind on all three engines"
    ~count:40 Test_engines.gen_query (fun query ->
      List.for_all
        (fun (_, engine, lower) ->
          let l0, o0, _, _ =
            run_spec ~spec:"rsp:all+cache" ~engine ~lower query
          in
          let l1, o1, _, g1 =
            run_spec ~spec:"rsp:all+cache+prefetch" ~engine ~lower query
          in
          l0 = l1 && o0 = o1
          && match g1 with
             | Some (issued, useful, wasted) -> issued = useful + wasted
             | None -> false)
        engines)

(* The planner's whole point, asserted at the packet counter: a cold
   deep traversal takes at least 3x fewer round trips with speculation
   than the plain cache, on both the list and the tree shape. *)
let fewer_packets_case =
  case "cold traversals take >= 3x fewer packets" (fun () ->
      List.iter
        (fun (spec, query) ->
          let _, _, p0, _ =
            run_spec ~spec:(spec ^ "+cache") ~engine:Session.Seq_engine
              ~lower:true query
          in
          let l1, _, p1, _ =
            run_spec
              ~spec:(spec ^ "+cache+prefetch")
              ~engine:Session.Seq_engine ~lower:true query
          in
          Alcotest.(check bool) (spec ^ ": traversal produced output") true
            (l1 <> []);
          Alcotest.(check bool)
            (Printf.sprintf "%s: %d cached packets >= 3x %d prefetched" spec
               p0 p1)
            true
            (p0 >= 3 * p1))
        [
          ("rsp:deep_list:400", "#/(deep-->next->value)");
          ("rsp:deep_tree:8", "#/(droot-->(left,right)->key)");
        ])

(* --- directed mispredictions --------------------------------------------- *)

(* A chain whose links are deliberately out of allocation order at the
   planted seed: the learned stride is wrong mid-chain, the walker
   speculates the wrong nodes, and nothing but the counters may show
   it. *)
let swapped_chain_case =
  case "swapped links mid-chain mispredict harmlessly" (fun () ->
      check_blind ~base:"rsp:deep_list_swapped:64"
        ~query:"#/(deep-->next->value)")

(* The engines always hint the true link offset of the hop they just
   validated; feed the predictor wrong ones by hand — stale history from
   a node type whose link lives elsewhere — and the walker decodes
   non-pointers, speculates garbage, swallows the faults, and demand
   reads stay exact. *)
let wrong_offset_case =
  case "wrong link-offset hints are harmless" (fun () ->
      let inf = Scenarios.all () in
      let dbg = Duel_target.Backend.direct inf in
      let head =
        match dbg.Dbgi.find_variable "head" with
        | Some { Dbgi.v_addr; _ } ->
            Int64.to_int
              (Dbgi.read_scalar dbg ~addr:v_addr ~size:8 ~signed:false)
        | None -> Alcotest.fail "head missing"
      in
      List.iter
        (fun off ->
          Prefetch.hint_chase dbg ~link_offset:off ~width:16 ~target:head)
        [ 0; 4; 12; 60; 8 ];
      (match Prefetch.stats dbg with
      | None -> Alcotest.fail "no predictor"
      | Some st -> Alcotest.(check int) "hints counted" 5 st.Prefetch.hints);
      let s = Session.create dbg in
      let got = Session.exec s "head-->next->value[[3,5]]" in
      let fresh = kit () in
      let expected = exec fresh "head-->next->value[[3,5]]" in
      Alcotest.(check (list string)) "demand traversal unaffected" expected got;
      Dcache.invalidate dbg;
      match Prefetch.stats dbg with
      | None -> Alcotest.fail "no predictor"
      | Some st ->
          Alcotest.(check int) "ledger balances"
            st.Prefetch.issued
            (st.Prefetch.useful + st.Prefetch.wasted))

(* A chase walking off the mapping edge: the walker's speculative read
   of the dangling tail faults, is swallowed and only counted; the
   demand read that follows surfaces the fault with the exact unmapped
   {addr; len} the raw backend reports. *)
let dangling_chase_case =
  case "speculative faults swallowed, demand faults exact" (fun () ->
      let inf = Scenarios.faulty () in
      let dbg = Duel_target.Backend.direct inf in
      let s = Session.create dbg in
      let got = Session.exec s "dang-->next->value" in
      let raw = Duel_target.Backend.direct ~cache:false (Scenarios.faulty ()) in
      let expected = Session.exec (Session.create raw) "dang-->next->value" in
      Alcotest.(check (list string)) "fault lines exact through prefetch"
        expected got;
      (* the dangling tail itself: demand fault attribution down to the
         byte, even though the walker already speculated at the edge *)
      let tail = 0x40000000 in
      (match dbg.Dbgi.get_bytes ~addr:tail ~len:4 with
      | _ -> Alcotest.fail "wild read must fault"
      | exception Dbgi.Target_fault { addr; len } ->
          Alcotest.(check int) "fault addr" tail addr;
          Alcotest.(check int) "fault len" 4 len);
      Dcache.invalidate dbg;
      match Prefetch.stats dbg with
      | None -> Alcotest.fail "no predictor"
      | Some st ->
          Alcotest.(check int) "ledger balances"
            st.Prefetch.issued
            (st.Prefetch.useful + st.Prefetch.wasted))

(* A write invalidating speculated lines: the generation probe drops the
   whole cache, still-speculative lines resolve wasted, and the next
   demand read refetches fresh bytes. *)
let coherence_case =
  case "write drops speculated lines as wasted" (fun () ->
      let inf = Scenarios.all () in
      let dbg = Duel_target.Backend.direct inf in
      let x =
        match dbg.Dbgi.find_variable "x" with
        | Some { Dbgi.v_addr; _ } -> v_addr
        | None -> Alcotest.fail "x missing"
      in
      ignore (Dbgi.read_scalar dbg ~addr:x ~size:4 ~signed:true);
      let n = Dcache.spec_fetch dbg ~addr:(x + 64) ~len:256 in
      Alcotest.(check bool) "lines speculated" true (n > 0);
      let st =
        match Prefetch.stats dbg with
        | Some st -> st
        | None -> Alcotest.fail "no predictor"
      in
      let wasted0 = st.Prefetch.wasted in
      (* a store behind the interface's back: the mini-C interpreter,
         the target itself — anything that bumps the write generation *)
      Memory.write (Inferior.mem inf) ~addr:(x + 80) (Bytes.make 4 '\x2a');
      Alcotest.(check int64) "demand read sees the new bytes" 0x2a2a2a2aL
        (Dbgi.read_scalar dbg ~addr:(x + 80) ~size:4 ~signed:false);
      Alcotest.(check bool)
        (Printf.sprintf "speculated lines resolved wasted (%d -> %d)" wasted0
           st.Prefetch.wasted)
        true
        (st.Prefetch.wasted >= wasted0 + n);
      Dcache.invalidate dbg;
      Alcotest.(check int) "ledger balances" st.Prefetch.issued
        (st.Prefetch.useful + st.Prefetch.wasted))

(* Speculative inserts never replace resident lines: a buffered write
   lives in a cached line, a span speculated over it must not clobber
   the pending bytes. *)
let pending_write_case =
  case "speculation never clobbers buffered writes" (fun () ->
      let inf = Scenarios.all () in
      let dbg = Duel_target.Backend.direct ~prefetch:false inf in
      let x =
        match dbg.Dbgi.find_variable "x" with
        | Some { Dbgi.v_addr; _ } -> v_addr
        | None -> Alcotest.fail "x missing"
      in
      Dbgi.write_scalar dbg ~addr:x ~size:4 77L;
      ignore (Dcache.spec_fetch dbg ~addr:(x - 64) ~len:256);
      Alcotest.(check int64) "buffered write survives speculation" 77L
        (Dbgi.read_scalar dbg ~addr:x ~size:4 ~signed:true))

(* The mapping-edge fallback for batched inserts: a span straddling an
   unmapped hole inserts the mapped prefix (counted, usable) and
   swallows nothing it shouldn't — demand past the edge still faults
   with exact attribution. *)
let mapping_edge_case =
  case "batched insert straddling a hole keeps the mapped prefix"
    (fun () ->
      let inf = Inferior.create () in
      let mem = Inferior.mem inf in
      let page = Memory.page_size in
      let base = 64 * page in
      Memory.map mem ~addr:base ~size:page;
      let dbg = Duel_target.Backend.direct ~prefetch:false inf in
      let start = base + page - 256 in
      let n = Dcache.spec_fetch dbg ~addr:start ~len:512 in
      Alcotest.(check int) "exactly the mapped prefix inserted" 4 n;
      (* the prefix serves demand without another backend read *)
      let rt0 =
        match Dcache.stats dbg with
        | Some st -> Dcache.round_trips st
        | None -> Alcotest.fail "no cache"
      in
      ignore (dbg.Dbgi.get_bytes ~addr:start ~len:256);
      let rt1 =
        match Dcache.stats dbg with
        | Some st -> Dcache.round_trips st
        | None -> Alcotest.fail "no cache"
      in
      Alcotest.(check int) "prefix served from speculated lines" rt0 rt1;
      (* a fully-unmapped span inserts nothing and raises to the caller
         (the predictor is who swallows it) *)
      (match Dcache.spec_fetch dbg ~addr:(base + page) ~len:128 with
      | _ -> Alcotest.fail "fully unmapped span must fault"
      | exception Dbgi.Target_fault _ -> ());
      match dbg.Dbgi.get_bytes ~addr:(base + page - 2) ~len:4 with
      | _ -> Alcotest.fail "demand straddling the edge must fault"
      | exception Dbgi.Target_fault { addr = _; len } ->
          Alcotest.(check int) "demand fault length exact" 4 len)

(* [set prefetch off] stops new speculation but the ledger keeps
   settling: lines speculated before the switch still resolve. *)
let toggle_case =
  case "disabling keeps the ledger settling" (fun () ->
      let inf = Scenarios.all () in
      let dbg = Duel_target.Backend.direct inf in
      let s = Session.create dbg in
      ignore (Session.exec s "head-->next->value");
      Alcotest.(check bool) "toggle accepted" true (Session.set_prefetch s false);
      let st =
        match Prefetch.stats dbg with
        | Some st -> st
        | None -> Alcotest.fail "no predictor"
      in
      let issued = st.Prefetch.issued in
      ignore (Session.exec s "hash[0]-->next->scope");
      Alcotest.(check int) "no new speculation while off" issued
        st.Prefetch.issued;
      Dcache.invalidate dbg;
      Alcotest.(check int) "ledger balances across the toggle"
        st.Prefetch.issued
        (st.Prefetch.useful + st.Prefetch.wasted);
      Alcotest.(check bool) "re-enable" true (Session.set_prefetch s true);
      Alcotest.(check bool) "stats render" true
        (List.length (Session.prefetch_stats s) >= 3))

let suite =
  List.map corpus_case Test_engines.corpus
  @ List.map faulty_case
      [
        "dang-->next->value";
        "lone-->next->value";
        "#/(dang-->next->value)";
        "cyc->bogus";
      ]
  @ [
      QCheck_alcotest.to_alcotest prop_blind;
      fewer_packets_case;
      swapped_chain_case;
      wrong_offset_case;
      dangling_chase_case;
      coherence_case;
      pending_write_case;
      mapping_edge_case;
      toggle_case;
    ]
