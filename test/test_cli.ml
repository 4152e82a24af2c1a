(* End-to-end tests of the oduel binary: scenario mode, RSP mode, engine
   flag, and the interactive program-mode debugger driven over stdin. *)

let case = Support.case
let oduel = "../bin/oduel.exe"

let run_cli ?stdin ?(stderr = false) args =
  let out_file = Filename.temp_file "oduel_out" ".txt" in
  let stdin_redir =
    match stdin with
    | None -> "< /dev/null"
    | Some text ->
        let f = Filename.temp_file "oduel_in" ".txt" in
        let oc = open_out f in
        output_string oc text;
        close_out oc;
        "< " ^ Filename.quote f
  in
  let cmd =
    Printf.sprintf "%s %s %s > %s %s" (Filename.quote oduel) args
      stdin_redir (Filename.quote out_file)
      (if stderr then "2>&1" else "2>/dev/null")
  in
  let status = Sys.command cmd in
  let ic = open_in out_file in
  let n = in_channel_length ic in
  let out = really_input_string ic n in
  close_in ic;
  (status, out)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let check_contains what out needle =
  if not (contains out needle) then
    Alcotest.failf "%s: expected %S in output:\n%s" what needle out

let scenario_oneshot () =
  let status, out = run_cli "-e 'x[1..4,8,12..50] >? 5 <? 10'" in
  Alcotest.(check int) "exit 0" 0 status;
  check_contains "filter hits" out "x[3] = 7";
  check_contains "filter hits" out "x[47] = 6"

let rsp_mode () =
  let status, out = run_cli "--rsp -e 'hash[0]-->next->scope'" in
  Alcotest.(check int) "exit 0" 0 status;
  check_contains "traversal over RSP" out "hash[0]->next->next->next->scope = 1"

let sm_engine_flag () =
  let _, seq_out = run_cli "-e '((1..9)*(1..9))[[52,74]]'" in
  let status, sm_out = run_cli "--engine sm -e '((1..9)*(1..9))[[52,74]]'" in
  Alcotest.(check int) "exit 0" 0 status;
  Alcotest.(check string) "engines agree through the CLI" seq_out sm_out;
  check_contains "select result" sm_out "6*8 = 48"

let bad_scenario () =
  let status, _ = run_cli "--scenario nonsense -e 1" in
  Alcotest.(check bool) "non-zero exit" true (status <> 0)

let repl_session () =
  let script = "1 + 2\nset engine sm\nv[..3]\nhelp\nquit\n" in
  let status, out = run_cli ~stdin:script "" in
  Alcotest.(check int) "exit 0" 0 status;
  check_contains "arithmetic" out "1+2 = 3";
  check_contains "sweep under sm engine" out "v[1] = 1";
  check_contains "help text" out "set engine ir|sm|ast";
  Alcotest.(check bool) "help text has no vm counters" false
    (contains out "info vm")

(* Engine names are checked, not defaulted: an unknown --engine exits 2
   naming the valid values, and [set engine] in the REPL answers the same
   way instead of falling through to DUEL evaluation. *)
let unknown_engine () =
  List.iter
    (fun name ->
      let status, out =
        run_cli ~stderr:true (Printf.sprintf "--engine %s -e 1" name)
      in
      Alcotest.(check int) ("--engine " ^ name ^ " exits 2") 2 status;
      check_contains "flag error names the engines" out "ir, seq, sm or ast";
      Alcotest.(check bool) "nothing evaluated" false (contains out "1 = 1"))
    [ "vm"; "sq" ];
  let script = "set engine vm
set engine sm
v[..3]
quit
" in
  let status, out = run_cli ~stdin:script "" in
  Alcotest.(check int) "repl exit 0" 0 status;
  check_contains "set engine names the engines" out
    "unknown engine vm; expected ir, seq, sm or ast";
  Alcotest.(check bool) "not parsed as an expression" false
    (contains out "undefined name");
  check_contains "a valid name still switches" out "v[1] = 1"

let program_mode_debugging () =
  let script =
    "break push if v == 4\n\
     run build 6\n\
     v, nalloc\n\
     continue\n\
     continue\n\
     first-->next->value[[0,5]]\n\
     run sum\n\
     quit\n"
  in
  let status, out =
    run_cli ~stdin:script "--program ../examples/programs/list.c"
  in
  Alcotest.(check int) "exit 0" 0 status;
  check_contains "breakpoint reported" out "breakpoint 1 at push if v == 4";
  check_contains "stop announced" out "stopped: breakpoint 1 at push";
  check_contains "local inspected at stop" out "v = 4";
  check_contains "run completes" out "build returned 6";
  check_contains "post-run query" out "first->value = 4";
  check_contains "second run" out "sum returned 13"

let program_watch_assert () =
  let script =
    "watch nalloc\nrun build 2\ncontinue\ncontinue\ndelete 1\n\
     assert nalloc < 3\nrun build 2\nabort\nquit\n"
  in
  let status, out =
    run_cli ~stdin:script "--program ../examples/programs/list.c"
  in
  Alcotest.(check int) "exit 0" 0 status;
  check_contains "watch stop" out "watchpoint 1: nalloc changed";
  check_contains "assertion stop" out "assertion 2 failed: nalloc < 3";
  check_contains "abort surfaces" out "stopped: assertion 2 failed"

(* serve in a child process, connect from this one — the full network
   path: two processes, a real Unix-domain socket, SIGINT shutdown. *)
let serve_connect_end_to_end () =
  let sock = Filename.temp_file "oduel_serve" ".sock" in
  Sys.remove sock;
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process oduel
      [| oduel; "serve"; "all"; "--listen"; "unix:" ^ sock |]
      devnull devnull devnull
  in
  let rec wait_sock n =
    if n = 0 then Alcotest.fail "server socket never appeared"
    else if Sys.file_exists sock then ()
    else begin
      Unix.sleepf 0.05;
      wait_sock (n - 1)
    end
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigint with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      Unix.close devnull)
    (fun () ->
      wait_sock 100;
      let status, out =
        run_cli
          ("connect "
          ^ Filename.quote ("unix:" ^ sock)
          ^ " -e 'x[3] = 7' -e 'x[1..4]' -e 'remote x[1..6] >? 3' -e 'info \
             server'")
      in
      Alcotest.(check int) "exit 0" 0 status;
      check_contains "write over the wire" out "x[3] = 7";
      check_contains "remote eval sees the write" out "x[3] = 7";
      check_contains "server counters reported" out "evals";
      check_contains "latency histogram reported" out "p99us")

(* fleet serve in a child process, [oduel diff] against it: the whole
   relative-debugging pipeline through the real binary — fan-out,
   tagged streams, symbolic divergence, and the documented exit codes
   (1 diverged, 0 identical). *)
let fleet_diff_end_to_end () =
  let sock = Filename.temp_file "oduel_fleet" ".sock" in
  Sys.remove sock;
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process oduel
      [|
        oduel;
        "serve";
        "fleet(good=deep_list:12,bad=deep_list_buggy:12)";
        "--listen";
        "unix:" ^ sock;
      |]
      devnull devnull devnull
  in
  let rec wait_sock n =
    if n = 0 then Alcotest.fail "server socket never appeared"
    else if Sys.file_exists sock then ()
    else begin
      Unix.sleepf 0.05;
      wait_sock (n - 1)
    end
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigint with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      Unix.close devnull)
    (fun () ->
      wait_sock 100;
      let addr = Filename.quote ("unix:" ^ sock) in
      let status, out =
        run_cli
          (Printf.sprintf "diff %s good bad 'deep-->next->value'" addr)
      in
      Alcotest.(check int) "diverged exit code" 1 status;
      check_contains "seeded index reported" out "value #6";
      check_contains "symbolic path reported" out "deep";
      let status, out =
        run_cli (Printf.sprintf "diff %s good good 'deep-->next->value'" addr)
      in
      Alcotest.(check int) "identical exit code" 0 status;
      check_contains "identical report" out "streams identical";
      (* the connect REPL sees the same fleet *)
      let status, out =
        run_cli
          ("connect " ^ addr
         ^ " -e 'info targets' -e 'use bad' -e 'all * deep->value'")
      in
      Alcotest.(check int) "connect exit 0" 0 status;
      check_contains "roster listed" out "deep_list_buggy:12";
      check_contains "rebinding announced" out "bound to target bad";
      check_contains "fan-out tags its legs" out "bad:")

let suite =
  [
    case "scenario one-shot" scenario_oneshot;
    case "RSP transport flag" rsp_mode;
    case "state-machine engine flag" sm_engine_flag;
    case "bad scenario rejected" bad_scenario;
    case "interactive REPL session" repl_session;
    case "unknown engine names rejected" unknown_engine;
    case "program-mode conditional breakpoint session" program_mode_debugging;
    case "program-mode watch and assert" program_watch_assert;
    case "serve and connect across processes" serve_connect_end_to_end;
    case "fleet diff across processes" fleet_diff_end_to_end;
  ]
