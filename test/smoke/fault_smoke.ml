(* Fast fault-matrix smoke for @check: on a file that already holds a
   committed history, run a small interleaved workload under each fault
   kind (crash budget, torn writes, bit flips, transient EIO, and all of
   them at once) and insist the reopened database always equals the
   Transactions.Recovery model's committed state, and that one more
   open and close of the recovered file changes no byte.  A table
   replace on a file with free pages is swept at every crash point too:
   the reopened table must be the old one or the new one.  A reduced
   version of the exhaustive sweeps in test/test_executor.ml — seconds,
   not minutes. *)

module E = Storage.Engine
module X = Storage.Executor
module F = Storage.Fault

let failures = ref 0

let say fmt = Printf.printf (fmt ^^ "\n%!")

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      Printf.printf "FAIL: %s\n%!" s)
    fmt

let fresh_path =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "fault_smoke_%d_%d.db" (Unix.getpid ()) !n)

let cleanup path =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; E.wal_path path ]

(* The model check's reopen has recovered the file; one more open and
   close finds an idle restart and must not change a byte. *)
let check_clean_reopen ~what path =
  let files () = List.map Support.Io.read_file [ path; E.wal_path path ] in
  let before = files () in
  E.close (E.open_db path);
  if files () <> before then fail "%s: a clean reopen changed the files" what

let workload ~seed =
  let rng = Support.Rng.create seed in
  Transactions.Workload.generate rng
    {
      Transactions.Workload.txns = 4;
      ops_per_txn = 5;
      items = 6;
      skew = 0.5;
      write_ratio = 0.6;
    }

(* A fault-free committed history over the same items, then a clean
   close: every recovery the faulted run triggers restarts from a
   checkpoint in the middle of the log, not from its first record. *)
let committed_history path ~seed =
  let eng = E.open_db ~pool_size:4 path in
  let stats =
    X.run ~config:{ X.default_config with seed } (X.engine eng)
      (workload ~seed:(seed + 1000))
  in
  E.close eng;
  if stats.X.committed <> 4 then
    fail "history (seed %d): expected 4 commits, got %d" seed stats.X.committed

let run_case ~what ~spec ~seed =
  let path = fresh_path () in
  committed_history path ~seed;
  let specs = workload ~seed in
  (* the crash budget may fire inside the open itself (header write,
     recovery I/O) — that is a legitimate sweep point too *)
  (match E.open_db ~pool_size:4 ~faults:(F.spec_of_string spec) path with
  | eng ->
      let stats =
        X.run ~config:{ X.default_config with seed } (X.engine eng) specs
      in
      if stats.X.crashed = None then (
        try E.close eng with F.Crash _ -> E.crash eng)
  | exception F.Crash _ -> ());
  (match X.model_divergence ~path with
  | None -> ()
  | Some (expected, actual) ->
      fail "%s (faults %S seed %d): committed state diverged\n  expected: %s\n  actual:   %s"
        what spec seed
        (String.concat ", " (List.map (fun (i, v) -> Printf.sprintf "%s=%d" i v) expected))
        (String.concat ", " (List.map (fun (i, v) -> Printf.sprintf "%s=%d" i v) actual)));
  check_clean_reopen
    ~what:(Printf.sprintf "%s (faults %S seed %d)" what spec seed)
    path;
  cleanup path

(* A fenced table replaced by v2 under a crash at every I/O, until the
   replace completes, on a file holding v1 with v0's pages free behind
   it (v1 replaced v0 in an earlier open). *)
let replace_sweep () =
  let version salt =
    Relational.Relation.of_list
      (Relational.Schema.make [ ("k", Relational.Value.TInt); ("v", Relational.Value.TString) ])
      (List.init 600 (fun i ->
           [ Relational.Value.Int i; Relational.Value.String (Printf.sprintf "%d-%012d" salt i) ]))
  in
  let v0 = version 0 and v1 = version 1 and v2 = version 2 in
  let k = ref 0 and finished = ref false in
  while not !finished do
    let path = fresh_path () in
    List.iter
      (fun v ->
        let eng = E.open_db ~pool_size:4 path in
        E.save_table eng "t" v;
        E.close eng)
      [ v0; v1 ];
    let spec = Printf.sprintf "crash=%d" !k in
    (match E.open_db ~pool_size:4 ~faults:(F.spec_of_string spec) path with
    | eng -> (
        match
          E.save_table eng "t" v2;
          E.close eng
        with
        | () -> finished := true
        | exception F.Crash _ -> E.crash eng)
    | exception F.Crash _ -> ());
    let what = Printf.sprintf "replace (faults %S)" spec in
    let eng = E.open_db path in
    (match E.load_table eng "t" with
    | t when Relational.Relation.equal t v1 || Relational.Relation.equal t v2 -> ()
    | _ -> fail "%s: the table is neither the old one nor the new one" what
    | exception e -> fail "%s: %s" what (Printexc.to_string e));
    E.close eng;
    check_clean_reopen ~what path;
    cleanup path;
    incr k
  done;
  say "replace sweep: ok (%d crash points)" !k

let () =
  let seeds = [ 1; 2; 3 ] in
  (* crash budget: a reduced matrix over early and mid-run I/O points *)
  List.iter
    (fun k ->
      List.iter
        (fun seed ->
          run_case ~what:"crash" ~spec:(Printf.sprintf "crash=%d" k) ~seed)
        seeds)
    [ 0; 2; 5; 9; 14 ];
  say "crash sweep: ok";
  replace_sweep ();
  (* each corruption kind alone, then everything at once *)
  List.iter
    (fun (what, spec) ->
      List.iter
        (fun seed ->
          run_case ~what ~spec:(spec ^ ",seed=" ^ string_of_int seed) ~seed)
        seeds;
      say "%s sweep: ok" what)
    [
      ("torn", "torn=0.05");
      ("flip", "flip=0.05");
      ("eio", "eio=0.1");
      ("mixed", "torn=0.03,flip=0.03,eio=0.08");
    ];
  (* deadlock victims must retry and finish: opposite-order writers *)
  let path = fresh_path () in
  let eng = E.open_db ~pool_size:4 path in
  let specs =
    [|
      [ Transactions.Schedule.Write "x"; Transactions.Schedule.Write "y" ];
      [ Transactions.Schedule.Write "y"; Transactions.Schedule.Write "x" ];
    |]
  in
  let stats =
    X.run ~config:{ X.default_config with seed = 7 } (X.engine eng) specs
  in
  E.close eng;
  if stats.X.committed <> 2 then
    fail "deadlock retry: expected 2 commits, got %d" stats.X.committed;
  if stats.X.deadlocks < 1 then
    fail "deadlock retry: expected at least one deadlock, got %d" stats.X.deadlocks;
  (match X.model_divergence ~path with
  | None -> ()
  | Some _ -> fail "deadlock retry: committed state diverged");
  check_clean_reopen ~what:"deadlock retry" path;
  cleanup path;
  say "deadlock retry: ok";
  if !failures > 0 then exit 1;
  say "fault smoke: all clear"
