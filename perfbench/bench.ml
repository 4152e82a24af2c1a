(* The DUEL end-to-end benchmark.

   One closed-loop load generator per workload: the next query is sent
   only after the previous reply arrived.  A round is one store
   [x[60] = <k>] (the "step") followed by a seeded permutation of the
   corpus in corpus.txt; every output is compared with the corpus's
   expected lines.  The program under test only ever receives the
   generated query strings.

     remote  Session.exec on rsp:all+stall(seed=N,ms=0.1,rate=1)+cache+prefetch,
             a modelled 0.1 ms round trip under the data cache
     serve   an in-process Server hosting fleet(t0..t3=all), each target
             behind the same stall, pumped by Server.step over two
             socketpair connections: light queries pipelined as qDuelEval
             on both, one scan per round fanned out with qDuelEvalAll:*,
             the step a store on t0
     repl    Session.exec on direct:all+cache+prefetch, seq engine, the
             stack `oduel` builds with no flags; all CPU, so too noisy on
             a shared host to be gated in BENCHMARK.json

   A run sets the workload up several times (setup_s is their median),
   times a fixed reference loop before and after the timed phase
   (host.calib_ms, the host-drift diagnostic), then runs rounds for the
   requested seconds.  With --trace 1 every second round records spans at
   the public-function boundaries of each layer, from which the per-layer
   metrics are derived.  The last stdout line is the JSON result; the exit
   code is 1 when any output was wrong. *)

module Session = Duel_core.Session
module Env = Duel_core.Env
module Dcache = Duel_dbgi.Dcache
module Prefetch = Duel_dbgi.Prefetch
module Memory = Duel_mem.Memory
module Inferior = Duel_target.Inferior
module Backend = Duel_backend.Backend
module Chaos = Duel_chaos.Chaos
module Server = Duel_serve.Server
module Client = Duel_serve.Client
module Histogram = Duel_serve.Histogram
module Fleet = Duel_fleet.Fleet

(* CLOCK_MONOTONIC, nanosecond resolution *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
let div a b = if b = 0. then 0. else a /. b
let fi = float_of_int

(* ---------- samples ---------- *)

(* Linear interpolation between closest ranks (numpy's default). *)
let percentile samples p =
  let sorted = Array.of_list samples in
  Array.sort compare sorted;
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let h = p *. fi (n - 1) in
    let lo = int_of_float h in
    let hi = min (lo + 1) (n - 1) in
    sorted.(lo) +. ((h -. fi lo) *. (sorted.(hi) -. sorted.(lo)))

let median l = percentile l 0.5

(* ---------- corpus and generator ---------- *)

type cls = Light | Scan | Step
type query = { cls : cls; text : string; expect : string list }

let load_corpus path =
  let ic = open_in path in
  let entries = ref [] and cur = ref None in
  let close_entry () =
    Option.iter
      (fun (cls, text, rev) ->
        entries := { cls; text; expect = List.rev rev } :: !entries)
      !cur;
    cur := None
  in
  let bad line = failwith (Printf.sprintf "%s: bad line %S" path line) in
  (try
     while true do
       let line = input_line ic in
       let len = String.length line in
       if len = 0 || line.[0] = '#' then ()
       else if len >= 2 && String.sub line 0 2 = "= " then
         match !cur with
         | Some (c, t, rev) -> cur := Some (c, t, String.sub line 2 (len - 2) :: rev)
         | None -> bad line
       else
         match String.index_opt line ' ' with
         | Some i ->
             let cls =
               match String.sub line 0 i with
               | "light" -> Light
               | "scan" -> Scan
               | _ -> bad line
             in
             close_entry ();
             cur := Some (cls, String.sub line (i + 1) (len - i - 1), [])
         | None -> bad line
     done
   with End_of_file -> ());
  close_entry ();
  close_in ic;
  Array.of_list (List.rev !entries)

(* The seed fixes every round: the stored value and the order.  Rounds
   come in antithetic pairs: the second round of a pair runs the
   first one's order reversed, so within every pair each query runs once
   before and once after each other query.  Which lines a query finds
   cached depends on what ran before it since the last invalidation; the
   pairing cancels most of that order effect, which would otherwise move
   the class percentiles from seed to seed.

   With [one_scan] a round carries the light queries and a single scan,
   the scans taking turns in a seeded order (each pair of rounds shares
   its scan): the serve workload's fan-outs cost a quarter second each,
   and five per round would leave too few rounds in a run to average the
   light class over. *)
module Gen = struct
  type t = {
    st : Random.State.t;
    corpus : query array;
    one_scan : bool;
    mutable last_k : int;
    mutable pending : query list option;  (** the reversed order still due *)
    mutable scans_due : query list;
  }

  let create ?(one_scan = false) ~seed corpus =
    { st = Random.State.make [| 0xd0e1; seed |]; corpus; one_scan; last_k = 0;
      pending = None; scans_due = [] }

  let shuffle g l =
    let p = Array.of_list l in
    for i = Array.length p - 1 downto 1 do
      let j = Random.State.int g.st (i + 1) in
      let t = p.(i) in
      p.(i) <- p.(j);
      p.(j) <- t
    done;
    Array.to_list p

  let round g =
    let k = 1000 + Random.State.int g.st 9000 in
    let k = if k = g.last_k then k + 1 else k in
    g.last_k <- k;
    let store = Printf.sprintf "x[60] = %d" k in
    let order =
      match g.pending with
      | Some o -> g.pending <- None; o
      | None ->
          let all = Array.to_list g.corpus in
          let queries =
            if not g.one_scan then all
            else begin
              if g.scans_due = [] then
                g.scans_due <- shuffle g (List.filter (fun q -> q.cls = Scan) all);
              let scan = List.hd g.scans_due in
              g.scans_due <- List.tl g.scans_due;
              List.filter (fun q -> q.cls <> Scan) all @ [ scan ]
            end
          in
          let o = shuffle g queries in
          g.pending <- Some (List.rev o);
          o
    in
    { cls = Step; text = store; expect = [ store ] } :: order
end

let check_generator corpus =
  let fail m = prerr_endline ("generator: " ^ m); exit 1 in
  let sorted l = List.sort compare l in
  let texts qs = List.map (fun q -> q.text) qs in
  let lights = List.filter (fun q -> q.cls = Light) (Array.to_list corpus) in
  let scans = List.filter (fun q -> q.cls = Scan) (Array.to_list corpus) in
  let check one_scan =
    let run seed =
      let g = Gen.create ~one_scan ~seed corpus in
      List.init 40 (fun _ -> Gen.round g)
    in
    let a = run 7 in
    if List.map texts (run 7) <> List.map texts a then
      fail "seed 7 gave two different sequences";
    if List.map texts (run 8) = List.map texts a then
      fail "seeds 7 and 8 gave the same sequence";
    ignore
      (List.fold_left
         (fun prev round ->
           match round with
           | store :: rest ->
               let l, sc = List.partition (fun q -> q.cls = Light) rest in
               if sorted (texts l) <> sorted (texts lights) then
                 fail "a round does not run every light query once";
               if one_scan then (
                 if List.length sc <> 1 then fail "a round has more than one scan")
               else if sorted (texts sc) <> sorted (texts scans) then
                 fail "a round does not run every scan once";
               if store.text = prev then fail "two consecutive rounds store the same value";
               store.text
           | [] -> fail "empty round")
         "" a);
    if one_scan then begin
      (* over a whole cycle every scan has its turn, twice *)
      let cycle = List.concat_map (fun r -> List.filter (fun q -> q.cls = Scan) r) a in
      let first = List.filteri (fun i _ -> i < 2 * List.length scans) cycle in
      if sorted (texts first) <> sorted (texts (scans @ scans)) then
        fail "the scans do not take turns"
    end
  in
  check false;
  check true;
  Printf.printf "generator: ok (%d light, %d scan queries)\n" (List.length lights)
    (List.length scans)

(* ---------- spans ---------- *)

module Trace = struct
  type span = {
    name : string;
    start : float;
    mutable stop : float;
    parent : int;
    qid : int;
  }

  let on = ref false
  let qid = ref 0
  let dummy = { name = ""; start = 0.; stop = 0.; parent = -1; qid = 0 }
  let buf = ref (Array.make 4096 dummy)
  let n = ref 0
  let stack = ref []

  let enter name =
    if !n = Array.length !buf then begin
      let b = Array.make (2 * !n) dummy in
      Array.blit !buf 0 b 0 !n;
      buf := b
    end;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let id = !n in
    !buf.(id) <- { name; start = now (); stop = 0.; parent; qid = !qid };
    incr n;
    stack := id :: !stack;
    id

  let leave id =
    !buf.(id).stop <- now ();
    stack := List.tl !stack

  let span name f =
    if not !on then f ()
    else
      let id = enter name in
      match f () with
      | v -> leave id; v
      | exception e -> leave id; raise e

  let dur s = s.stop -. s.start

  (* name -> (total duration, total self time, count); a span's self time
     is its duration minus that of its direct children *)
  let aggregate () =
    let child = Array.make !n 0. in
    for i = 0 to !n - 1 do
      let s = !buf.(i) in
      if s.parent >= 0 then child.(s.parent) <- child.(s.parent) +. dur s
    done;
    let tbl = Hashtbl.create 16 in
    for i = 0 to !n - 1 do
      let s = !buf.(i) in
      let d, self, c =
        Option.value (Hashtbl.find_opt tbl s.name) ~default:(0., 0., 0)
      in
      Hashtbl.replace tbl s.name (d +. dur s, self +. dur s -. child.(i), c + 1)
    done;
    tbl

  (* total duration of [name] spans whose parent is a [parent] span *)
  let dur_under ~name ~parent =
    let t = ref 0. in
    for i = 0 to !n - 1 do
      let s = !buf.(i) in
      if s.name = name && s.parent >= 0 && !buf.(s.parent).name = parent then
        t := !t +. dur s
    done;
    !t

  let write path =
    let oc = open_out path in
    output_string oc "id\tname\tstart_us\tend_us\tparent\tqid\n";
    let t0 = if !n > 0 then !buf.(0).start else 0. in
    for i = 0 to !n - 1 do
      let s = !buf.(i) in
      Printf.fprintf oc "%d\t%s\t%.1f\t%.1f\t%d\t%d\n" i s.name
        ((s.start -. t0) *. 1e6) ((s.stop -. t0) *. 1e6) s.parent s.qid
    done;
    close_out oc
end

(* ---------- recording ---------- *)

type recorder = {
  lat : float list array;  (** milliseconds, indexed by [cls_index] *)
  mutable attempted : int;
  mutable failed : int;
  mutable first_bad : string option;
}

let cls_index = function Light -> 0 | Scan -> 1 | Step -> 2

let recorder () =
  { lat = Array.make 3 []; attempted = 0; failed = 0; first_bad = None }

let note r q lines dt =
  let i = cls_index q.cls in
  r.lat.(i) <- (dt *. 1000.) :: r.lat.(i);
  r.attempted <- r.attempted + 1;
  if lines <> q.expect then begin
    r.failed <- r.failed + 1;
    if r.first_bad = None then
      r.first_bad <-
        Some (Printf.sprintf "%S gave [%s]" q.text (String.concat " | " lines))
  end

(* ---------- workloads ---------- *)

type stack = {
  run_round : recorder -> query list -> unit;
  counters : unit -> (string * float) list;
      (** cumulative layer counters; "packets" counts interface round
          trips: backend operations below the dcache on repl, RSP
          exchanges on remote, server request frames on serve *)
  hist : Histogram.t option;  (** the server's service-time histogram *)
  close : unit -> unit;
}

let ok = function Ok v -> v | Error m -> failwith m

(* The user's command, decomposed into the public steps Session.exec
   runs, with a span around each.  No corpus command ends in ';', so
   every value is displayed. *)
let traced_exec s src =
  let env = s.Session.env in
  let depth = Env.scope_depth env in
  let lines = ref [] in
  (try
     let ast = Trace.span "lexparse" (fun () -> Session.parse s src) in
     let ir = Trace.span "lower" (fun () -> Session.compile s ast) in
     Trace.span "engine" (fun () ->
         Seq.iter
           (fun v ->
             lines := Trace.span "format" (fun () -> Session.format_value s v) :: !lines)
           (Session.eval_ir s ir))
   with e -> lines := ("raised " ^ Printexc.to_string e) :: !lines);
  Env.restore_scope_depth env depth;
  Trace.span "flush" (fun () -> Dcache.flush env.Env.dbg);
  List.rev !lines

let session_round s r qs =
  List.iter
    (fun q ->
      incr Trace.qid;
      let t0 = now () in
      let lines =
        Trace.span "query" (fun () ->
            if !Trace.on then traced_exec s q.text else Session.exec s q.text)
      in
      note r q lines (now () -. t0))
    qs

let session_counters s () =
  let dbg = s.Session.env.Env.dbg in
  let ls = s.Session.env.Env.lstats in
  let dc =
    match Dcache.stats dbg with
    | Some st ->
        [ ("dcache.hits", fi st.Dcache.hits); ("dcache.misses", fi st.misses);
          ("dcache.fills", fi st.fills); ("dcache.invalidations", fi st.invalidations) ]
    | None -> []
  in
  let pf =
    match Prefetch.stats dbg with
    | Some st ->
        [ ("prefetch.issued", fi st.Prefetch.issued); ("prefetch.useful", fi st.useful);
          ("prefetch.wasted", fi st.wasted) ]
    | None -> []
  in
  [ ("lower.hits", fi ls.Env.l_hits); ("lower.misses", fi ls.l_misses) ] @ dc @ pf

let repl_stack () =
  let b = ok (Backend.of_string "direct:all+cache+prefetch") in
  let s = Session.create ~engine:Session.Seq_engine b.Backend.b_dbg in
  {
    run_round = session_round s;
    counters =
      (fun () ->
        let rt = Option.fold ~none:0 ~some:Dcache.round_trips (Dcache.stats b.b_dbg) in
        ("packets", fi rt) :: session_counters s ());
    hist = None;
    close = b.b_close;
  }

let remote_spec seed =
  Printf.sprintf "rsp:all+stall(seed=%d,ms=0.1,rate=1)+cache+prefetch" seed

(* Built from the parsed spec with the same public calls Backend.build
   makes, so the exchange and the stall can be counted and timed. *)
let remote_stack seed =
  match Backend.parse (remote_spec seed) with
  | Ok
      (Backend.Atom
        ( Backend.Rsp scen,
          [ Backend.Stall { seed; ms; rate }; Backend.Cache; Backend.Prefetch ] ))
    ->
      let inf = ok (Backend.scenario_of_name scen) in
      let srv = Duel_rsp.Server.create inf in
      let exchanges = ref 0 and stalls = ref 0 in
      let exchange frame =
        incr exchanges;
        Trace.span "exchange" (fun () -> Duel_rsp.Server.handle srv frame)
      in
      let sleep d =
        incr stalls;
        Trace.span "stall" (fun () -> Unix.sleepf d)
      in
      let raw =
        Duel_rsp.Client.connect ~exchange (Duel_rsp.Client.debug_info_of_inferior inf)
      in
      let plan =
        Chaos.plan ~seed { Chaos.off with Chaos.delay = rate; delay_s = ms /. 1000. }
      in
      let dbg =
        Dcache.wrap
          ~config:
            {
              Dcache.default_config with
              Dcache.stale_policy =
                Dcache.Probe (fun () -> Memory.generation (Inferior.mem inf));
            }
          (Chaos.wrap_dbgi ~sleep plan raw)
      in
      ignore (Prefetch.attach dbg);
      let s = Session.create ~engine:Session.Seq_engine dbg in
      ( {
          run_round = session_round s;
          counters =
            (fun () ->
              ("packets", fi !exchanges) :: ("wire.exchanges", fi !exchanges)
              :: ("wire.stalls", fi !stalls) :: session_counters s ());
          hist = None;
          close = (fun () -> Dcache.flush dbg);
        },
        exchanges,
        stalls )
  | Ok _ | Error _ -> failwith ("unexpected spec " ^ remote_spec seed)

let fleet_spec = "fleet(t0=all,t1=all,t2=all,t3=all)"

(* Each fleet target sits behind the same modelled 0.1 ms link as the
   remote workload, placed under the target's data cache. *)
let serve_stack seed =
  let stalls = ref 0 in
  let sleep d =
    incr stalls;
    Trace.span "stall" (fun () -> Unix.sleepf d)
  in
  let wrap id dbg =
    let plan =
      Chaos.plan ~seed:(seed + Hashtbl.hash id)
        { Chaos.off with Chaos.delay = 1.; delay_s = 0.0001 }
    in
    Chaos.wrap_dbgi ~sleep plan dbg
  in
  let fleet = ok (Fleet.of_string ~wrap fleet_spec) in
  let targets = Fleet.targets fleet in
  let srv = Server.create ~fleet (List.hd targets).Fleet.inf in
  let pump () = Trace.span "serve.step" (fun () -> ignore (Server.step srv 0.0)) in
  let connect () =
    let c, s = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Server.inject srv s;
    Client.of_fd ~pump c
  in
  let a = connect () and b = connect () in
  let attempt f = try f () with e -> [ "raised " ^ Printexc.to_string e ] in
  (* a query's id and start time, taken before it is sent *)
  let timed name f =
    incr Trace.qid;
    let qid = !Trace.qid and t0 = now () in
    (qid, t0, Trace.span name f)
  in
  let send c q = timed "send" (fun () -> Client.eval_send c q.text) in
  let recv r q c (qid, t0, ()) =
    Trace.qid := qid;
    let lines = attempt (fun () -> Trace.span "recv" (fun () -> Client.eval_recv c)) in
    note r q lines (now () -. t0)
  in
  let run_round r qs =
    List.iter
      (fun q ->
        match q.cls with
        | Light ->
            (* the same query on both connections, pipelined: the second
               finds the plan the first compiled *)
            let ha = send a q in
            let hb = send b q in
            recv r q a ha;
            recv r q b hb
        | Step ->
            let _, t0, lines = timed "query" (fun () -> attempt (fun () -> Client.eval a q.text)) in
            note r q lines (now () -. t0)
        | Scan ->
            let _, t0, legs =
              timed "fanout" (fun () ->
                  try Client.eval_all a [] q.text
                  with e -> [ ("*", Error (Printexc.to_string e)) ])
            in
            let dt = now () -. t0 in
            let lines =
              match List.find_opt (fun (_, leg) -> leg <> Ok q.expect) legs with
              | None when List.length legs = List.length targets -> q.expect
              | None -> [ Printf.sprintf "%d legs" (List.length legs) ]
              | Some (id, Ok l) -> (id ^ ":") :: l
              | Some (id, Error m) -> [ id ^ " failed: " ^ m ]
            in
            note r q lines dt)
      qs
  in
  {
    run_round;
    counters =
      (fun () ->
        let st = Server.stats srv in
        [
          ("packets", fi st.Server.packets);
          ("wire.exchanges", fi !stalls);
          ("wire.stalls", fi !stalls);
          ("plan.hits", fi st.plan_hits);
          ("plan.misses", fi st.plan_misses);
          ("plan.compiles", fi st.plan_compiles);
          ("plan.inval", fi st.plan_inval);
          ( "fleet.evals",
            fi
              (List.fold_left
                 (fun acc t -> acc + Atomic.get t.Fleet.tstats.Fleet.evals)
                 0 targets) );
        ]);
    hist = Some (Server.stats srv).Server.hist;
    close =
      (fun () ->
        Client.close a;
        Client.close b;
        Server.shutdown srv;
        let rec drain k = if k > 0 && Server.step srv 0.0 then drain (k - 1) in
        drain 1000);
  }

(* ---------- measurement ---------- *)

(* A fixed reference loop: arithmetic, then a pointer chase through
   8 MB held outside the OCaml heap, so it neither allocates nor changes
   the collector's state.  Its time moves only when the host does. *)
let calib_ms () =
  let n = 1 lsl 20 in
  let next = Bigarray.(Array1.create int c_layout n) in
  (* Sattolo's shuffle: one cycle through every slot, in a fixed
     scattered order *)
  let st = Random.State.make [| 42 |] in
  for i = 0 to n - 1 do
    next.{i} <- i
  done;
  for i = n - 1 downto 1 do
    let j = Random.State.int st i in
    let t = next.{i} in
    next.{i} <- next.{j};
    next.{j} <- t
  done;
  let once () =
    let t0 = now () in
    let r = ref 0 in
    for i = 1 to 10_000_000 do
      r := ((!r * 31) + i) land 0xffffff
    done;
    let p = ref 0 in
    for _ = 1 to 200_000 do
      p := next.{!p}
    done;
    ignore (Sys.opaque_identity (!r + !p));
    (now () -. t0) *. 1000.
  in
  median (List.init 5 (fun _ -> once ()))

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> fi (Gc.quick_stat ()).Gc.top_heap_words *. 8. /. 1048576.
  | ic ->
      let rec find () =
        match input_line ic with
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
                fi kb /. 1024.)
        | _ -> find ()
        | exception End_of_file -> 0.
      in
      let v = find () in
      close_in ic;
      v

let gc_alloc_words () =
  let g = Gc.quick_stat () in
  g.Gc.minor_words +. g.major_words -. g.promoted_words

(* Each reported percentile keeps at least ten samples beyond it. *)
let enough r =
  let n i = List.length r.lat.(i) in
  n 0 >= 200 && n 1 >= 100 && n 2 >= 20

type phase = {
  rec_ : recorder;
  wall : float;
  rounds : int;
  delta : (string * float) list;
  alloc_w : float;
  majors : int;
  on : float * int;  (** wall seconds and queries of the traced rounds *)
  off : float * int;  (** the same for the untraced rounds *)
}

(* With [alternate], every second round is traced, so the traced and the
   untraced rounds see the same host and the difference between them is
   the tracing overhead. *)
let run_phase st gen ~seconds ~alternate =
  let r = recorder () in
  let c0 = st.counters () in
  let a0 = gc_alloc_words () and m0 = (Gc.quick_stat ()).Gc.major_collections in
  let on = ref (0., 0) and off = ref (0., 0) in
  let t0 = now () in
  let rounds = ref 0 in
  (* past [seconds] only to reach the sample floor, and never past the
     cap that keeps a run inside its time limit *)
  while
    let el = now () -. t0 in
    (el < seconds || not (enough r)) && el < seconds +. 60.
  do
    let traced = alternate && !rounds land 1 = 1 in
    let acc = if traced then on else off in
    let q0 = r.attempted and rt = now () in
    Trace.on := traced;
    st.run_round r (Gen.round gen);
    Trace.on := false;
    acc := (fst !acc +. now () -. rt, snd !acc + r.attempted - q0);
    incr rounds
  done;
  let wall = now () -. t0 in
  let c1 = st.counters () in
  {
    rec_ = r;
    wall;
    rounds = !rounds;
    delta = List.map (fun (k, v) -> (k, v -. List.assoc k c0)) c1;
    alloc_w = gc_alloc_words () -. a0;
    majors = (Gc.quick_stat ()).Gc.major_collections - m0;
    on = !on;
    off = !off;
  }

(* ---------- main ---------- *)

let setups = 3
let warmup_rounds = 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let corpus_path = ref "perfbench/corpus.txt" and check_gen = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "repl|remote|serve");
      ("--seed", Arg.Set_int seed, "N  workload seed");
      ("--seconds", Arg.Set_int seconds, "S  length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1  per-layer traced run");
      ("--corpus", Arg.Set_string corpus_path, "PATH  queries and expected lines");
      ("--check-generator", Arg.Set check_gen, " test the seeded generator and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench --workload repl|remote|serve --seed N --seconds S --trace 0|1";
  let corpus = load_corpus !corpus_path in
  if !check_gen then (check_generator corpus; exit 0);
  if not (List.mem !workload [ "repl"; "remote"; "serve" ]) then begin
    prerr_endline ("bench: unknown workload " ^ !workload ^ " (repl|remote|serve)");
    exit 2
  end;
  let seed = !seed and traced = !trace = 1 in
  let build () =
    match !workload with
    | "repl" -> (repl_stack (), None)
    | "remote" ->
        let st, ex, sl = remote_stack seed in
        (st, Some (ex, sl))
    | _ -> (serve_stack seed, None)
  in
  (* warm-up rounds run the whole corpus, so every set-up does the same
     work whatever the workload's round design *)
  let warm_gen = Gen.create ~seed corpus in
  let gen = Gen.create ~one_scan:(!workload = "serve") ~seed corpus in
  let calib_before = calib_ms () in
  let warm = recorder () in
  (* Set up several times; setup_s is the median.  The last stack is the
     one timed. *)
  let times, stacks =
    List.split
      (List.init setups (fun _ ->
           Gc.full_major ();
           let t0 = now () in
           let st = build () in
           for _ = 1 to warmup_rounds do
             (fst st).run_round warm (Gen.round warm_gen)
           done;
           (now () -. t0, st)))
  in
  let st, wire = List.nth stacks (setups - 1) in
  List.iteri (fun i (s, _) -> if i < setups - 1 then s.close ()) stacks;
  let ex0, sl0 = match wire with Some (e, s) -> (!e, !s) | None -> (0, 0) in
  Gc.compact ();
  Option.iter Histogram.reset st.hist;
  let p = run_phase st gen ~seconds:(fi !seconds) ~alternate:traced in
  let calib_after = calib_ms () in
  st.close ();
  let stall_ok =
    match wire with
    | Some (e, s) -> !e - ex0 = !s - sl0
    | None -> true
  in
  let attempted = p.rec_.attempted and failed = p.rec_.failed in
  let correct = failed = 0 && warm.failed = 0 && stall_ok in
  let n i = List.length p.rec_.lat.(i) in
  Printf.printf "workload=%s seed=%d rounds=%d light=%d scan=%d step=%d wall=%.2fs\n"
    !workload seed p.rounds (n 0) (n 1) (n 2) p.wall;
  Printf.printf "host.calib_ms before=%.2f after=%.2f\n" calib_before calib_after;
  Printf.printf "failed_frac=%g (%d of %d; warm-up %d of %d)\n"
    (div (fi failed) (fi attempted)) failed attempted warm.failed warm.attempted;
  List.iter
    (fun r -> Option.iter (fun m -> Printf.printf "wrong output: %s\n" m) r.first_bad)
    [ warm; p.rec_ ];
  (match wire with
  | Some (e, s) ->
      Printf.printf "latency model: %d stalls for %d exchanges (%s)\n" (!s - sl0)
        (!e - ex0) (if stall_ok then "equal" else "MISMATCH")
  | None -> ());
  let metrics =
    if not traced then
      let pct c q = percentile p.rec_.lat.(cls_index c) q in
      [
        ("setup_s", median times, "s");
        ("light_p50_ms", pct Light 0.5, "ms");
        ("light_p95_ms", pct Light 0.95, "ms");
        ("scan_p50_ms", pct Scan 0.5, "ms");
        ("scan_p90_ms", pct Scan 0.9, "ms");
        ("step_p50_ms", pct Step 0.5, "ms");
        ("queries_per_s", fi attempted /. p.wall, "1/s");
        ("packets_per_query", div (List.assoc "packets" p.delta) (fi attempted), "count");
        ("peak_rss_mb", peak_rss_mb (), "MB");
      ]
    else begin
      let agg = Trace.aggregate () in
      let get name = Option.value (Hashtbl.find_opt agg name) ~default:(0., 0., 0) in
      let self name = let _, s, _ = get name in s in
      let total name = let d, _, _ = get name in d in
      let count name = let _, _, c = get name in fi c in
      (* counters cover the whole phase, spans only its traced rounds *)
      let d k = Option.value (List.assoc_opt k p.delta) ~default:0. in
      let q = fi attempted and rounds = fi p.rounds in
      let on_wall, on_q = p.on and off_wall, off_q = p.off in
      let per_q x = div x q and per_tq x = div x (fi on_q) and us x = x *. 1e6 in
      let stall_ms = div (total "stall") (count "stall") *. 1000. in
      let fanouts = fi (n 1) in
      let legs_per_fanout =
        if !workload = "serve" then div (d "fleet.evals" -. (q -. fanouts)) fanouts
        else 0.
      in
      let hist_us p' = Option.fold ~none:0. ~some:(fun h -> Histogram.percentile h p' *. 1e6) st.hist in
      let dir = ".perfbench-out" in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let path = Printf.sprintf "%s/spans-%s-%d.tsv" dir !workload seed in
      Trace.write path;
      Printf.printf "spans: %d written to %s\n" !Trace.n path;
      [
        ("lexparse.us_per_query", us (per_tq (self "lexparse")), "us");
        ("lower.us_per_query", us (per_tq (self "lower")), "us");
        ("lower.slot_hit_ratio", div (d "lower.hits") (d "lower.hits" +. d "lower.misses"), "ratio");
        ("engine.us_per_query", us (per_tq (self "engine")), "us");
        ("engine.values_per_query", per_tq (count "format"), "count");
        ("format.us_per_query", us (per_tq (self "format")), "us");
        ("dcache.hit_ratio", div (d "dcache.hits") (d "dcache.hits" +. d "dcache.misses"), "ratio");
        ("dcache.fills_per_query", per_q (d "dcache.fills"), "count");
        ("dcache.invalidations_per_round", div (d "dcache.invalidations") rounds, "count");
        ("prefetch.issued_per_query", per_q (d "prefetch.issued"), "count");
        ("prefetch.useful_ratio", div (d "prefetch.useful") (d "prefetch.issued"), "ratio");
        ("prefetch.wasted_per_query", per_q (d "prefetch.wasted"), "count");
        ("wire.exchanges_per_query", per_q (d "wire.exchanges"), "count");
        ("wire.stall_ms_per_exchange", stall_ms, "ms");
        ("wire.stalls_per_exchange", div (d "wire.stalls") (d "wire.exchanges"), "ratio");
        ("wire.wait_ms_per_query", per_q (d "wire.exchanges") *. stall_ms, "ms");
        (* time the client spent neither in the server nor on a link;
           serve's stalls happen inside Server.step *)
        ( "client.cpu_ms_per_query",
          per_tq
            (on_wall -. total "serve.step" -. total "stall"
            +. Trace.dur_under ~name:"stall" ~parent:"serve.step")
          *. 1000.,
          "ms" );
        ("serve.step_us_per_query", us (per_tq (total "serve.step")), "us");
        ("serve.service_p50_us", hist_us 0.5, "us");
        ("serve.service_p99_us", hist_us 0.99, "us");
        ("plan.hit_ratio", div (d "plan.hits") (d "plan.hits" +. d "plan.misses"), "ratio");
        ("plan.compiles_per_round", div (d "plan.compiles") rounds, "count");
        ("plan.invalidations_per_round", div (d "plan.inval") rounds, "count");
        ("fleet.legs_per_fanout", legs_per_fanout, "count");
        ( "fleet.us_per_leg",
          us
            (div
               (Trace.dur_under ~name:"serve.step" ~parent:"fanout")
               (count "fanout" *. legs_per_fanout)),
          "us" );
        ("gc.alloc_kw_per_query", per_q p.alloc_w /. 1000., "kword");
        ("gc.major_per_kquery", per_q (fi p.majors) *. 1000., "count");
        ("host.calib_ms", (calib_before +. calib_after) /. 2., "ms");
        ("trace.spans_per_query", per_tq (fi !Trace.n), "count");
        ( "trace.overhead_pct",
          (div (div (fi off_q) off_wall) (div (fi on_q) on_wall) -. 1.) *. 100.,
          "%" );
        ]
    end
  in
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (k, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" k (num v) u)
          metrics));
  exit (if correct then 0 else 1)
