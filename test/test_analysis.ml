(* Tests for the static-analysis framework: each diagnostic code has a
   positive case (the defect is reported) and a clean negative case, plus
   stratification edge cases and JSON round-tripping. *)

module A = Analysis
module D = Analysis.Diagnostic

let parse = Datalog.Parser.parse_program
let pquery = Datalog.Parser.parse_query

let codes diags = List.map (fun d -> d.D.code) diags

let has_code c diags = List.mem c (codes diags)

let check_code msg c diags =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %s in [%s]" msg c (String.concat "; " (codes diags)))
    true (has_code c diags)

let check_no_code msg c diags =
  Alcotest.(check bool)
    (Printf.sprintf "%s: no %s in [%s]" msg c
       (String.concat "; " (codes diags)))
    false (has_code c diags)

let check_clean msg diags =
  Alcotest.(check int)
    (Printf.sprintf "%s: expected clean, got [%s]" msg
       (String.concat "; " (codes diags)))
    0 (List.length diags)

(* --- datalog passes -------------------------------------------------------- *)

let dl_lint ?query src = A.Datalog_lint.lint ?query (parse src)

let test_dl001_safety () =
  let diags = dl_lint "p(X, Y) :- q(X)." in
  check_code "unbound head var" "DL001" diags;
  check_code "negated unbound var" "DL001"
    (dl_lint "p(X) :- q(X), not r(Y).");
  check_code "comparison unbound var" "DL001" (dl_lint "p(X) :- q(X), Y < 3.");
  check_no_code "safe rule" "DL001" (dl_lint "p(X) :- q(X).")

let test_dl001_collects_all () =
  (* the non-raising API reports every violation, not just the first *)
  let prog = parse "p(X, Y) :- q(Z).\nr(W) :- s(V)." in
  let v = Datalog.Checks.safety_violations prog in
  Alcotest.(check int) "three unbound variables" 3 (List.length v)

let test_dl002_stratification () =
  check_code "p() :- not p()" "DL002" (dl_lint "p() :- not p().");
  (* negation ON a recursive cycle *)
  check_code "negation on cycle" "DL002"
    (dl_lint "p(X) :- q(X), not r(X).\nr(X) :- q(X), p(X).");
  (* negation OFF the cycle: reach is recursive, but the negation reads
     it from a strictly lower stratum *)
  check_no_code "negation off cycle" "DL002"
    (dl_lint
       "reach(X) :- edge(1, X).\n\
        reach(Y) :- reach(X), edge(X, Y).\n\
        dead(X) :- node(X), not reach(X).\n\
        node(X) :- edge(X, Y).\n\
        node(Y) :- edge(X, Y).")

let test_stratification_conflict_api () =
  Alcotest.(check bool)
    "conflict reported" true
    (Datalog.Checks.stratification_conflict (parse "p() :- not p().") <> None);
  Alcotest.(check bool)
    "no conflict on stratifiable program" true
    (Datalog.Checks.stratification_conflict
       (parse "p(X) :- q(X), not r(X).\nr(X) :- q(X).")
    = None)

let test_dl003_arity () =
  check_code "head vs body arity" "DL003"
    (dl_lint "p(X) :- q(X).\np(X, Y) :- q(X), q(Y).");
  check_no_code "consistent arities" "DL003"
    (dl_lint "p(X) :- q(X).\np(Y) :- q(Y).")

let test_dl004_undefined () =
  check_code "undefined body predicate" "DL004" (dl_lint "p(X) :- q(X).");
  check_no_code "defined by a fact" "DL004" (dl_lint "q(1).\np(X) :- q(X).");
  check_code "undefined query predicate" "DL004"
    (dl_lint ~query:(pquery "ghost(X)") "q(1).\np(X) :- q(X).")

let test_dl005_unused () =
  (* with a query, a defined predicate that nothing reads is flagged *)
  let diags =
    dl_lint ~query:(pquery "p(X)")
      "q(1).\np(X) :- q(X).\nother(X) :- q(X)."
  in
  check_code "unused under query" "DL005" diags;
  check_no_code "query target is used" "DL005"
    (dl_lint ~query:(pquery "p(X)") "q(1).\np(X) :- q(X).");
  (* without a query only fact-only predicates are flagged *)
  check_code "unused fact-only predicate" "DL005"
    (dl_lint "q(1).\nstray(7).\np(X) :- q(X).");
  check_no_code "rule-defined outputs are fine without query" "DL005"
    (dl_lint "q(1).\np(X) :- q(X).")

let test_dl006_cartesian () =
  check_code "disjoint positive atoms" "DL006"
    (dl_lint "q(1).\nr(2).\np(X, Y) :- q(X), r(Y).");
  check_no_code "shared variable" "DL006"
    (dl_lint "q(1, 2).\np(X, Y) :- q(X, Z), q(Z, Y).");
  (* a comparison can be the connector *)
  check_no_code "connected through comparison" "DL006"
    (dl_lint "q(1).\nr(2).\np(X, Y) :- q(X), r(Y), X < Y.")

let test_dl007_subsumption () =
  check_code "duplicate rule" "DL007"
    (dl_lint "q(1).\np(X) :- q(X).\np(Y) :- q(Y).");
  check_code "subsumed rule" "DL007"
    (dl_lint "q(1, 2).\np(X) :- q(X, Y).\np(X) :- q(X, X).");
  check_no_code "genuinely different rules" "DL007"
    (dl_lint "q(1).\nr(1).\np(X) :- q(X).\np(X) :- r(X).")

let test_dl008_dead_rule () =
  let src = "q(1).\np(X) :- q(X).\nisland(X) :- q(X)." in
  check_code "unreachable from query" "DL008"
    (dl_lint ~query:(pquery "p(X)") src);
  check_no_code "no query, no dead-rule analysis" "DL008" (dl_lint src);
  check_no_code "everything reachable" "DL008"
    (dl_lint ~query:(pquery "p(X)") "q(1).\np(X) :- q(X).")

let test_dl_clean_program () =
  check_clean "paths program is clean"
    (dl_lint
       "edge(1, 2).\nedge(2, 3).\n\
        path(X, Y) :- edge(X, Y).\n\
        path(X, Y) :- edge(X, Z), path(Z, Y).")

(* --- relational passes ----------------------------------------------------- *)

let schema = Relational.Schema.make

let catalog =
  A.Relational_lint.catalog_of_alist
    [
      ("r", schema [ ("a", Relational.Value.TInt); ("b", Relational.Value.TInt) ]);
      ("s", schema [ ("b", Relational.Value.TInt); ("c", Relational.Value.TString) ]);
      ("t", schema [ ("d", Relational.Value.TInt) ]);
    ]

let ra_lint text =
  A.Relational_lint.lint ~catalog (Relational.Query_parser.parse text)

let test_ra001_unknown_relation () =
  check_code "unknown relation" "RA001" (ra_lint "select[a = 1](nope)");
  check_no_code "known relation" "RA001" (ra_lint "select[a = 1](r)")

let test_ra002_unknown_attribute () =
  check_code "unknown attribute in predicate" "RA002"
    (ra_lint "select[zzz = 1](r)");
  check_code "unknown attribute in projection" "RA002" (ra_lint "project[zzz](r)");
  check_no_code "known attributes" "RA002" (ra_lint "project[a](select[b = 1](r))")

let test_ra003_type_mismatch () =
  check_code "int vs string comparison" "RA003" (ra_lint "select[b = c](s)");
  check_code "incompatible set operation" "RA003" (ra_lint "r union t");
  check_no_code "compatible comparison" "RA003" (ra_lint "select[a = b](r)")

let test_ra004_cross_product () =
  check_code "explicit product" "RA004" (ra_lint "r times t");
  check_code "join degenerates to product" "RA004" (ra_lint "r join t");
  check_no_code "real join" "RA004" (ra_lint "r join s")

let test_ra005_pushdown () =
  check_code "selection above join" "RA005" (ra_lint "select[a = 1](r join s)");
  check_no_code "selection already at leaf" "RA005"
    (ra_lint "select[a = 1](r) join s");
  check_no_code "whole-result selection cannot push" "RA005"
    (ra_lint "select[a = 1](r)")

let test_ra006_projection_drops_key () =
  check_code "join key projected away" "RA006" (ra_lint "project[a](r) join s");
  check_no_code "join key kept" "RA006" (ra_lint "project[a,b](r) join s")

let test_ra_error_recovery () =
  (* one bad leaf must not hide the other side's defect *)
  let diags = ra_lint "select[zzz = 1](nope join s)" in
  check_code "unknown relation still reported" "RA001" diags

let test_ra_clean_plan () =
  check_clean "clean plan" (ra_lint "project[a](select[b = 1](r) join s)")

(* --- transaction passes ---------------------------------------------------- *)

let tx_lint = A.Transaction_lint.lint_string

let test_tx001_malformed () =
  check_code "action after commit" "TX001" (tx_lint "r1(x) c1 w1(x)");
  check_no_code "well-formed" "TX001" (tx_lint "r1(x) w1(x) c1")

let test_tx002_conflict_cycle () =
  let diags = tx_lint "r1(x) w2(x) r2(y) w1(y) c1 c2" in
  check_code "conflict cycle" "TX002" diags;
  (* the diagnostic names the offending transaction pair *)
  let d = List.find (fun d -> d.D.code = "TX002") diags in
  Alcotest.(check bool) "names both transactions" true
    (Str_contains.contains d.D.message "{1, 2}");
  check_no_code "serializable" "TX002" (tx_lint "r1(x) w1(x) c1 r2(x) c2");
  (* uncommitted transactions do not poison the committed projection *)
  check_no_code "aborted txn leaves no cycle" "TX002"
    (tx_lint "r1(x) w2(x) r2(y) w1(y) c1 a2")

let test_tx003_unrecoverable () =
  check_code "reader commits first" "TX003" (tx_lint "w1(x) r2(x) c2 c1");
  check_no_code "writer commits first" "TX003" (tx_lint "w1(x) c1 r2(x) c2")

let test_tx004_cascading () =
  check_code "dirty read" "TX004" (tx_lint "w1(x) r2(x) c1 c2");
  check_no_code "read after commit" "TX004" (tx_lint "w1(x) c1 r2(x) c2")

let test_tx005_non_strict () =
  check_code "overwrite before termination" "TX005"
    (tx_lint "w1(x) w2(x) c1 c2");
  check_no_code "strict schedule" "TX005" (tx_lint "w1(x) c1 w2(x) c2")

let test_tx006_unlocked_access () =
  check_code "write without exclusive lock" "TX006"
    (tx_lint "sl1(x) w1(x) c1");
  check_code "read without lock" "TX006" (tx_lint "xl1(y) r1(x) c1");
  check_code "unlock without hold" "TX006" (tx_lint "u1(x) c1");
  check_no_code "properly locked" "TX006" (tx_lint "xl1(x) w1(x) c1");
  (* plain schedules carry no lock information: the pass stays silent *)
  check_no_code "no lock ops, no lock lint" "TX006" (tx_lint "w1(x) c1")

let test_tx007_two_phase () =
  check_code "lock after unlock" "TX007"
    (tx_lint "xl1(x) w1(x) u1(x) xl1(y) w1(y) c1");
  check_no_code "all locks before first unlock" "TX007"
    (tx_lint "xl1(x) xl1(y) w1(x) w1(y) u1(x) u1(y) c1")

let test_tx008_conflicting_grant () =
  check_code "two exclusive holders" "TX008" (tx_lint "xl1(x) xl2(x) w1(x) c1 c2");
  check_no_code "shared with shared" "TX008" (tx_lint "sl1(x) sl2(x) r1(x) r2(x) c1 c2")

let test_tx009_lock_leak () =
  check_code "held at end of schedule" "TX009" (tx_lint "xl1(x) w1(x)");
  check_no_code "released by commit" "TX009" (tx_lint "xl1(x) w1(x) c1")

let test_tx010_potential_deadlock () =
  check_code "opposite access orders" "TX010"
    (tx_lint "w1(x) w2(y) w2(x) w1(y) c1 c2");
  check_code "opposite lock orders" "TX010"
    (tx_lint "xl1(x) xl2(y) xl2(x) xl1(y) w1(x) w2(y) c1 c2");
  check_no_code "same lock order" "TX010" (tx_lint "w1(x) w1(y) c1 w2(x) w2(y) c2")

let test_tx_clean_schedule () =
  check_clean "serial locked schedule"
    (tx_lint "xl1(x) w1(x) c1 sl2(x) r2(x) c2")

(* --- wal verifier ----------------------------------------------------------- *)

module W = Storage.Wal

let wbegin t = W.Begin t
let wcommit t = W.Commit t
let wabort t = W.Abort t

let wwrite ?(compensation = false) txn item before after =
  W.Write { txn; item; before; after; compensation }

let image records = String.concat "" (List.map W.frame_of_record records)

(* lint a log image exactly as `dbmeta lint wal` would a file *)
let wal_lint records = A.Wal_lint.lint (W.scan_report (image records))

let committed_txn ?(txn = 1) ?(item = "x") ?(before = 0) ?(after = 7) () =
  [ wbegin txn; wwrite txn item before after; wcommit txn ]

let test_wl001_non_monotone_lsn () =
  check_code "lsn goes backwards" "WL001"
    (A.Wal_lint.lint_entries
       [
         { W.lsn = 40; record = wbegin 1 };
         { W.lsn = 12; record = wcommit 1 };
       ]);
  check_no_code "scanned image is monotone" "WL001"
    (wal_lint (committed_txn ()))

let test_wl002_overlapping_frames () =
  check_code "frame starts inside its predecessor" "WL002"
    (A.Wal_lint.lint_entries
       [
         { W.lsn = 0; record = wbegin 1 };
         { W.lsn = 5; record = wcommit 1 };
       ]);
  check_no_code "scanned image is dense" "WL002" (wal_lint (committed_txn ()))

let test_wl003_op_without_begin () =
  check_code "write without begin" "WL003"
    (wal_lint [ wwrite 1 "x" 0 7; wcommit 1 ]);
  check_code "commit without begin" "WL003" (wal_lint [ wcommit 9 ]);
  check_no_code "bracketed txn" "WL003" (wal_lint (committed_txn ()))

let test_wl004_duplicate_begin () =
  check_code "begin twice" "WL004"
    (wal_lint [ wbegin 1; wbegin 1; wcommit 1 ]);
  check_code "write after commit" "WL004"
    (wal_lint (committed_txn () @ [ wwrite 1 "x" 7 9 ]));
  check_code "commit then abort" "WL004"
    (wal_lint (committed_txn () @ [ wabort 1 ]));
  check_no_code "id reuse never happens in engine logs" "WL004"
    (wal_lint (committed_txn ~txn:1 () @ committed_txn ~txn:2 ~before:7 ()))

let test_wl005_stray_compensation () =
  check_code "CLR with no forward write" "WL005"
    (wal_lint [ wbegin 1; wwrite ~compensation:true 1 "x" 7 0; wabort 1 ]);
  check_code "compensated txn commits" "WL005"
    (wal_lint
       [
         wbegin 1; wwrite 1 "x" 0 7; wwrite ~compensation:true 1 "x" 7 0;
         wcommit 1;
       ]);
  check_no_code "rollback episode" "WL005"
    (wal_lint
       [
         wbegin 1; wwrite 1 "x" 0 7; wwrite ~compensation:true 1 "x" 7 0;
         wabort 1;
       ])

let test_wl006_checkpoint_not_quiescent () =
  check_code "checkpoint with a live txn" "WL006"
    (wal_lint [ wbegin 1; W.Checkpoint; wcommit 1 ]);
  check_no_code "quiescent checkpoint" "WL006"
    (wal_lint (committed_txn () @ [ W.Checkpoint ]))

let test_wl007_torn_tail () =
  let torn = image (committed_txn ()) ^ "\x01\x02\x03" in
  let diags = A.Wal_lint.lint (W.scan_report torn) in
  check_code "trailing garbage is a torn tail" "WL007" diags;
  check_no_code "not mid-log corruption" "WL008" diags;
  Alcotest.(check int) "torn tail is only a warning" 0 (D.exit_code diags);
  check_no_code "clean log has no tail" "WL007" (wal_lint (committed_txn ()))

let test_wl008_midlog_corruption () =
  let img = image (committed_txn ~txn:1 () @ committed_txn ~txn:2 ~before:7 ()) in
  let corrupt = Bytes.of_string img in
  (* smash a payload byte of the very first frame: the scan stops at 0,
     but every later frame is intact and the resync search finds them *)
  Bytes.set corrupt 9 '\xff';
  let diags = A.Wal_lint.lint (W.scan_report (Bytes.to_string corrupt)) in
  check_code "damage followed by intact frames" "WL008" diags;
  check_no_code "not a torn tail" "WL007" diags;
  Alcotest.(check int) "mid-log corruption is an error" 1 (D.exit_code diags)

(* Damage before the anchor of the database beside the log keeps its
   code and severity, and says that the open walks over it; reading the
   anchor writes nothing. *)
let test_wl008_before_anchor () =
  let img = image (committed_txn ~txn:1 () @ committed_txn ~txn:2 ~before:7 ()) in
  let corrupt = Bytes.of_string img in
  Bytes.set corrupt 9 '\xff';
  let report = W.scan_report (Bytes.to_string corrupt) in
  let wl008 diags = List.find (fun d -> d.D.code = "WL008") diags in
  let past = String.length img in
  let before = wl008 (A.Wal_lint.lint ~anchor:{ at = past; clean_to = past } report) in
  Alcotest.(check bool) "an error still" true (before.D.severity = D.Error);
  Alcotest.(check bool) "the open keeps the log" true
    (Str_contains.contains before.D.message "the open walks from the anchor and keeps every byte");
  List.iter
    (fun (what, diags) ->
      Alcotest.(check bool) what true
        (Str_contains.contains (wl008 diags).D.message "a tolerant open would silently lose"))
    [
      ("no anchor", A.Wal_lint.lint report);
      ("anchor at the damage", A.Wal_lint.lint ~anchor:{ at = 0; clean_to = 0 } report);
    ];
  let path = Filename.temp_file "dbmeta_wl008" ".db" in
  Sys.remove path;
  let eng = Storage.Engine.open_db path in
  let txn = Storage.Engine.begin_txn eng in
  Storage.Engine.write eng ~txn "x" 1;
  Storage.Engine.commit eng ~txn;
  Storage.Engine.close eng;
  let wal = Storage.Engine.wal_path path in
  let log = Bytes.of_string (Support.Io.read_file wal) in
  Bytes.set log 20 '\xff';
  Support.Io.write_file wal (Bytes.to_string log);
  let files () = (Support.Io.read_file path, Support.Io.read_file wal) in
  let at_rest = files () in
  let diags = A.Wal_lint.lint_file wal in
  Alcotest.(check bool) "the anchor beside the log is read" true
    (Str_contains.contains (wl008 diags).D.message "lies before the anchor");
  Alcotest.(check bool) "nothing written" true (files () = at_rest);
  List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ path; wal ]

(* Damage on both sides of the anchor, the state a later crash leaves:
   the open walks from the anchor and cuts at the later damage, so
   WL008 keeps the plain wording instead of saying every byte is kept. *)
let test_wl008_damage_both_sides_of_anchor () =
  let path = Filename.temp_file "dbmeta_wl008" ".db" in
  Sys.remove path;
  let run eng items =
    List.iter
      (fun (item, v) ->
        let txn = Storage.Engine.begin_txn eng in
        Storage.Engine.write eng ~txn item v;
        Storage.Engine.commit eng ~txn)
      items
  in
  let eng = Storage.Engine.open_db path in
  run eng [ ("x", 1) ];
  Storage.Engine.close eng;
  let at =
    match Storage.Engine.log_anchor path with
    | Some (at, _) -> at
    | None -> Alcotest.fail "close leaves an anchor"
  in
  let eng = Storage.Engine.open_db path in
  run eng [ ("y", 2); ("z", 3) ];
  Storage.Engine.crash eng;
  let wal = Storage.Engine.wal_path path in
  let clean = Support.Io.read_file wal in
  let message log =
    Support.Io.write_file wal log;
    (List.find (fun d -> d.D.code = "WL008") (A.Wal_lint.lint_file wal)).D.message
  in
  let smash log offs =
    let b = Bytes.of_string log in
    List.iter (fun o -> Bytes.set b o '\xff') offs;
    Bytes.to_string b
  in
  let check_cut what log =
    let m = message log in
    Alcotest.(check bool) (what ^ ": not every byte kept") false
      (Str_contains.contains m "keeps every byte");
    Alcotest.(check bool) (what ^ ": the suffix may be lost") true
      (Str_contains.contains m
         (Printf.sprintf "a tolerant open would silently lose the %d-byte suffix"
            (String.length log - (W.scan_report log).W.clean_bytes)))
  in
  (* the first frame after the anchor's checkpoint is the next Begin *)
  let after = at + String.length (W.frame_of_record W.Checkpoint) in
  Alcotest.(check bool) "frames follow the anchor" true (String.length clean > after + 20);
  Alcotest.(check bool) "damage before the anchor alone keeps every byte" true
    (Str_contains.contains (message (smash clean [ 20 ])) "keeps every byte");
  check_cut "a bad frame after the anchor" (smash clean [ 20; after + 5 ]);
  check_cut "a torn tail after the anchor" (smash clean [ 20 ] ^ "\x01\x02\x03");
  List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ path; wal ]

let test_wl009_live_at_end () =
  let diags = wal_lint [ wbegin 1; wwrite 1 "x" 0 7 ] in
  check_code "loser-to-be is reported" "WL009" diags;
  Alcotest.(check int) "live txn is only info" 0 (D.exit_code diags);
  check_no_code "terminated txn" "WL009" (wal_lint (committed_txn ()))

let test_wl010_before_image_chain () =
  check_code "before-image contradicts last after-image" "WL010"
    (wal_lint
       (committed_txn ~txn:1 ~after:5 ()
       @ [ wbegin 2; wwrite 2 "x" 0 9; wcommit 2 ]));
  check_no_code "chained before-images" "WL010"
    (wal_lint
       (committed_txn ~txn:1 ~after:5 ()
       @ [ wbegin 2; wwrite 2 "x" 5 9; wcommit 2 ]));
  (* the chain survives a rollback: the CLR restores the old value *)
  check_no_code "chain through an abort episode" "WL010"
    (wal_lint
       (committed_txn ~txn:1 ~after:5 ()
       @ [
           wbegin 2; wwrite 2 "x" 5 9; wwrite ~compensation:true 2 "x" 9 5;
           wabort 2; wbegin 3; wwrite 3 "x" 5 1; wcommit 3;
         ]))

let test_wal_empty_log_is_clean () =
  check_clean "empty log" (A.Wal_lint.lint (W.scan_report ""))

(* --- concurrency prediction ------------------------------------------------- *)

let cc_lint = A.Concurrency_lint.lint_string

let test_cc001_lockset_race () =
  check_code "disjoint locksets on a shared item" "CC001"
    (cc_lint "xl1(a) w1(x) u1(a) c1 xl2(b) w2(x) u2(b) c2");
  check_no_code "item's own lock held" "CC001"
    (cc_lint "xl1(x) w1(x) c1 xl2(x) w2(x) c2");
  check_no_code "single-txn access never races" "CC001"
    (cc_lint "xl1(a) w1(x) w1(x) c1");
  (* plain schedules carry no lock info: every CC pass stays silent *)
  check_clean "no lock ops, no CC lint" (cc_lint "w1(x) w2(x) c1 c2")

let test_cc002_insufficient_mode () =
  let diags = cc_lint "sl1(g) w1(x) u1(g) c1 sl2(g) w2(x) u2(g) c2" in
  check_code "guard held only shared at writes" "CC002" diags;
  check_no_code "a common lock exists, so no race" "CC001" diags;
  check_no_code "exclusive guard is enough" "CC002"
    (cc_lint "xl1(g) w1(x) u1(g) c1 xl2(g) w2(x) u2(g) c2")

let test_cc003_guard_lock () =
  check_code "protected by a different lock" "CC003"
    (cc_lint "xl1(g) w1(x) u1(g) c1 xl2(g) w2(x) u2(g) c2");
  check_no_code "protected by the item's own lock" "CC003"
    (cc_lint "xl1(x) w1(x) c1 xl2(x) w2(x) c2")

let serial_deadlock = "xl1(x) xl1(y) w1(x) w1(y) c1 xl2(y) xl2(x) w2(y) w2(x) c2"

let test_cc004_lock_order_cycle () =
  let diags = cc_lint serial_deadlock in
  check_code "opposite acquisition orders" "CC004" diags;
  Alcotest.(check int) "prediction is a warning, not an error" 0
    (D.exit_code diags);
  check_no_code "same order everywhere" "CC004"
    (cc_lint "xl1(x) xl1(y) w1(x) c1 xl2(x) xl2(y) w2(y) c2");
  check_no_code "one txn alone cannot deadlock" "CC004"
    (cc_lint "xl1(x) xl1(y) w1(x) u1(y) u1(x) xl1(y) xl1(x) w1(y) c1")

let test_cc004_subsumes_tx010 () =
  (* the observational pass needs an interleaved witness; the predictive
     pass fires even on this serial execution of the same program *)
  check_no_code "TX010 is silent on the serial schedule" "TX010"
    (tx_lint serial_deadlock);
  check_code "CC004 predicts from the serial schedule" "CC004"
    (cc_lint serial_deadlock)

let test_cc005_gate_lock () =
  let gated =
    "xl1(g) xl1(x) xl1(y) w1(x) w1(y) c1 xl2(g) xl2(y) xl2(x) w2(y) w2(x) c2"
  in
  let diags = cc_lint gated in
  check_code "gate lock demotes the cycle" "CC005" diags;
  check_no_code "no CC004 when gated" "CC004" diags;
  check_code "ungated cycle stays a warning" "CC004" (cc_lint serial_deadlock)

let test_cc006_upgrade_deadlock () =
  let diags = cc_lint "sl1(x) sl2(x) r1(x) r2(x) xl1(x) xl2(x) w1(x) w2(x) c1 c2" in
  check_code "simultaneous upgrades" "CC006" diags;
  Alcotest.(check int) "a certain deadlock is an error" 1 (D.exit_code diags);
  check_no_code "serial upgrades never overlap" "CC006"
    (cc_lint "sl1(x) r1(x) xl1(x) w1(x) c1 sl2(x) r2(x) xl2(x) w2(x) c2")

let test_cc_clean_schedule () =
  check_clean "well-locked serial schedule"
    (cc_lint "xl1(x) w1(x) c1 sl2(x) r2(x) c2");
  check_clean "full pipeline on the same schedule"
    (A.Pass.run_all A.Concurrency_lint.schedule_passes
       (Transactions.Locked_schedule.of_string
          "xl1(x) w1(x) c1 sl2(x) r2(x) c2"))

(* --- semantic passes (chase-based, SQ) ------------------------------------- *)

let sq_catalog =
  A.Relational_lint.catalog_of_alist
    [
      ( "students",
        schema
          [
            ("sid", Relational.Value.TInt);
            ("sname", Relational.Value.TString);
            ("year", Relational.Value.TInt);
          ] );
      ( "enrolled",
        schema
          [
            ("sid", Relational.Value.TInt);
            ("cid", Relational.Value.TString);
            ("grade", Relational.Value.TInt);
          ] );
    ]

let sq_fd spec =
  match A.Semantic_lint.fd_of_spec ~catalog:sq_catalog spec with
  | Ok fd -> fd
  | Error e -> failwith e

let sq_lint ?(fds = []) text =
  A.Semantic_lint.lint ~catalog:sq_catalog ~fds
    (Relational.Query_parser.parse text)

let sq_dl ?query src =
  A.Pass.run_all A.Semantic_lint.datalog_passes
    { A.Datalog_lint.program = parse src; query }

let test_sq001_unsatisfiable_selection () =
  check_code "equals two constants" "SQ001"
    (sq_lint "select[year = 1 and year = 2](students)");
  check_code "empty interval" "SQ001"
    (sq_lint "select[year > 3 and year < 2](students)");
  check_no_code "satisfiable conjunction" "SQ001"
    (sq_lint "select[year >= 1 and year <= 3](students)")

let test_sq002_provably_empty () =
  check_code "contradictory constants" "SQ002"
    (sq_lint "select[sid = 1 and sid = 2](students)");
  check_no_code "plain selection" "SQ002" (sq_lint "select[sid = 1](students)")

let test_sq003_redundant_join () =
  (* foldable by plain Chandra-Merlin minimization: the second copy's
     attributes never reach the output *)
  check_code "self-join, core needs one copy" "SQ003"
    (sq_lint "project[sid](students join students)");
  (* both copies reach the output: only the key FD folds them *)
  let q =
    "project[sid, sname, s2](students join rename[sname -> s2, year -> \
     y2](students))"
  in
  check_no_code "no FD, both copies needed" "SQ003" (sq_lint q);
  check_code "key FD makes the copy redundant" "SQ003"
    (sq_lint ~fds:[ sq_fd "students: sid -> sname year" ] q);
  check_no_code "genuine join is not redundant" "SQ003"
    (sq_lint "project[sname, grade](students join enrolled)")

let test_sq004_contained_arm () =
  check_code "union arm adds nothing" "SQ004"
    (sq_lint "select[year = 3](students) union students");
  check_code "difference provably empty" "SQ004"
    (sq_lint "select[year = 3](students) minus students");
  check_no_code "incomparable arms" "SQ004"
    (sq_lint "select[year = 1](students) union select[year = 2](students)")

let test_sq005_bridged_product () =
  let renamed = "rename[sid -> sid2, cid -> c2, grade -> g2](enrolled)" in
  check_code "equality bridges the product" "SQ005"
    (sq_lint (Printf.sprintf "select[sid = sid2](students times %s)" renamed));
  check_no_code "bare product (RA004's business)" "SQ005"
    (sq_lint (Printf.sprintf "students times %s" renamed))

let test_sq006_bounded_recursion () =
  check_code "recursive rule contained in base rule" "SQ006"
    (sq_dl "p(X) :- e(X).\np(X) :- p(X), e(X).");
  check_no_code "genuine recursion" "SQ006"
    (sq_dl "p(X) :- e(X).\np(Y) :- p(X), f(X, Y).")

let test_sq007_dead_rule () =
  let diags = sq_dl "empty(X) :- empty(X).\nq(X) :- empty(X)." in
  check_code "reads a provably-empty predicate" "SQ007" diags;
  Alcotest.(check int) "both the cycle and its reader flagged" 2
    (List.length (List.filter (fun d -> d.D.code = "SQ007") diags));
  check_code "head constants cannot unify with the query" "SQ007"
    (sq_dl ~query:(pquery "ans(1, X)") "ans(2, X) :- e(X).");
  check_no_code "facts make it nonempty" "SQ007"
    (sq_dl "e(1).\nq(X) :- e(X).");
  check_no_code "database-backed predicates may be nonempty" "SQ007"
    (sq_dl "q(X) :- e(X).")

let test_sq008_redundant_body_atom () =
  check_code "foldable second atom" "SQ008"
    (sq_dl "p(X) :- e(X, Y), e(X, Z).");
  check_no_code "single atom" "SQ008" (sq_dl "p(X) :- e(X, Y).");
  check_no_code "both atoms constrained" "SQ008"
    (sq_dl "p(X, Y, Z) :- e(X, Y), e(X, Z).")

let test_sq10x_certifier_bridge () =
  let module C = Planner.Certify in
  let report =
    [
      { C.name = "push_selections"; verdict = C.Equivalent };
      { C.name = "order_joins"; verdict = C.Refuted "cores differ" };
      { C.name = "physical_shadow"; verdict = C.Refuted "attrs differ" };
      { C.name = "join_elimination"; verdict = C.Skipped "not conjunctive" };
    ]
  in
  let diags = A.Semantic_lint.of_certify report in
  check_code "refuted logical stage" "SQ101" diags;
  check_code "refuted physical shadow" "SQ102" diags;
  check_code "skipped stage" "SQ103" diags;
  Alcotest.(check int) "refutations fail the run" 1 (D.exit_code diags);
  check_clean "all-equivalent report is silent"
    (A.Semantic_lint.of_certify
       [ { C.name = "push_selections"; verdict = C.Equivalent } ]);
  Alcotest.(check int) "skipped alone passes" 0
    (D.exit_code
       (A.Semantic_lint.of_certify
          [ { C.name = "order_joins"; verdict = C.Skipped "union" } ]))

let test_sq_fd_spec_parsing () =
  (match A.Semantic_lint.fd_of_spec ~catalog:sq_catalog "nonsense" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed spec accepted");
  (match A.Semantic_lint.fd_of_spec ~catalog:sq_catalog "students: zzz -> sname" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown attribute accepted");
  (match A.Semantic_lint.fd_of_spec ~catalog:sq_catalog "nope: a -> b" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown table accepted");
  match A.Semantic_lint.fd_of_spec ~catalog:sq_catalog "students: sid -> sname year" with
  | Ok fd ->
      Alcotest.(check string) "predicate" "students" fd.Datalog.Containment.fd_pred;
      Alcotest.(check (list int)) "lhs positions" [ 0 ] fd.Datalog.Containment.fd_lhs;
      Alcotest.(check (list int)) "rhs positions" [ 1; 2 ] fd.Datalog.Containment.fd_rhs
  | Error e -> Alcotest.fail e

let test_sq_clean_plan () =
  check_clean "honest query draws no SQ diagnostics"
    (sq_lint "project[sname](select[grade >= 90](students join enrolled))")

(* --- diagnostics infrastructure -------------------------------------------- *)

let test_json_roundtrip () =
  let diags =
    [
      D.error ~subject:"p(X) :- q(Y)." ~loc:0 "DL001" "unsafe \"rule\"";
      D.warning "RA004" "cross\nproduct";
      D.info ~loc:3 "TX005" "not strict\ttabbed";
    ]
  in
  let parsed = D.list_of_json (D.list_to_json diags) in
  Alcotest.(check bool) "round-trips structurally" true (parsed = diags)

let test_json_roundtrip_real () =
  let diags = tx_lint "r1(x) w2(x) r2(y) w1(y) c1 c2" in
  Alcotest.(check bool) "real diagnostics round-trip" true
    (D.list_of_json (D.list_to_json diags) = diags)

let test_json_rejects_garbage () =
  Alcotest.check_raises "garbage" (D.Json_error "expected ',' or ']' at offset 3")
    (fun () -> ignore (D.list_of_json "[1 2]"))

let test_exit_code_policy () =
  Alcotest.(check int) "errors fail" 1
    (D.exit_code [ D.error "X1" "boom"; D.info "X2" "meh" ]);
  Alcotest.(check int) "warnings pass" 0
    (D.exit_code [ D.warning "X1" "hmm" ]);
  Alcotest.(check int) "empty passes" 0 (D.exit_code [])

let test_severity_ordering () =
  let sorted =
    D.sort [ D.info "C" "c"; D.error "B" "b"; D.warning "A" "a" ]
  in
  Alcotest.(check (list string)) "errors first" [ "B"; "A"; "C" ] (codes sorted)

let test_pass_crash_is_diagnosed () =
  let boom = Analysis.Pass.make "boom" (fun _ -> failwith "kaput") in
  let diags = Analysis.Pass.run_all [ boom ] () in
  check_code "crash surfaces as LINT99" "LINT99" diags

let suite =
  [
    Alcotest.test_case "DL001 safety" `Quick test_dl001_safety;
    Alcotest.test_case "DL001 collects all" `Quick test_dl001_collects_all;
    Alcotest.test_case "DL002 stratification" `Quick test_dl002_stratification;
    Alcotest.test_case "stratification_conflict api" `Quick
      test_stratification_conflict_api;
    Alcotest.test_case "DL003 arity" `Quick test_dl003_arity;
    Alcotest.test_case "DL004 undefined" `Quick test_dl004_undefined;
    Alcotest.test_case "DL005 unused" `Quick test_dl005_unused;
    Alcotest.test_case "DL006 cartesian" `Quick test_dl006_cartesian;
    Alcotest.test_case "DL007 subsumption" `Quick test_dl007_subsumption;
    Alcotest.test_case "DL008 dead rule" `Quick test_dl008_dead_rule;
    Alcotest.test_case "datalog clean" `Quick test_dl_clean_program;
    Alcotest.test_case "RA001 unknown relation" `Quick test_ra001_unknown_relation;
    Alcotest.test_case "RA002 unknown attribute" `Quick test_ra002_unknown_attribute;
    Alcotest.test_case "RA003 type mismatch" `Quick test_ra003_type_mismatch;
    Alcotest.test_case "RA004 cross product" `Quick test_ra004_cross_product;
    Alcotest.test_case "RA005 pushdown" `Quick test_ra005_pushdown;
    Alcotest.test_case "RA006 drops join key" `Quick test_ra006_projection_drops_key;
    Alcotest.test_case "RA error recovery" `Quick test_ra_error_recovery;
    Alcotest.test_case "relational clean" `Quick test_ra_clean_plan;
    Alcotest.test_case "TX001 malformed" `Quick test_tx001_malformed;
    Alcotest.test_case "TX002 conflict cycle" `Quick test_tx002_conflict_cycle;
    Alcotest.test_case "TX003 unrecoverable" `Quick test_tx003_unrecoverable;
    Alcotest.test_case "TX004 cascading" `Quick test_tx004_cascading;
    Alcotest.test_case "TX005 non-strict" `Quick test_tx005_non_strict;
    Alcotest.test_case "TX006 unlocked access" `Quick test_tx006_unlocked_access;
    Alcotest.test_case "TX007 two-phase" `Quick test_tx007_two_phase;
    Alcotest.test_case "TX008 conflicting grant" `Quick test_tx008_conflicting_grant;
    Alcotest.test_case "TX009 lock leak" `Quick test_tx009_lock_leak;
    Alcotest.test_case "TX010 potential deadlock" `Quick test_tx010_potential_deadlock;
    Alcotest.test_case "transactions clean" `Quick test_tx_clean_schedule;
    Alcotest.test_case "WL001 non-monotone lsn" `Quick test_wl001_non_monotone_lsn;
    Alcotest.test_case "WL002 overlapping frames" `Quick test_wl002_overlapping_frames;
    Alcotest.test_case "WL003 op without begin" `Quick test_wl003_op_without_begin;
    Alcotest.test_case "WL004 duplicate begin" `Quick test_wl004_duplicate_begin;
    Alcotest.test_case "WL005 stray compensation" `Quick test_wl005_stray_compensation;
    Alcotest.test_case "WL006 checkpoint not quiescent" `Quick
      test_wl006_checkpoint_not_quiescent;
    Alcotest.test_case "WL007 torn tail" `Quick test_wl007_torn_tail;
    Alcotest.test_case "WL008 mid-log corruption" `Quick test_wl008_midlog_corruption;
    Alcotest.test_case "WL008 before the anchor" `Quick test_wl008_before_anchor;
    Alcotest.test_case "WL008 damage both sides of the anchor" `Quick
      test_wl008_damage_both_sides_of_anchor;
    Alcotest.test_case "WL009 live at end" `Quick test_wl009_live_at_end;
    Alcotest.test_case "WL010 before-image chain" `Quick test_wl010_before_image_chain;
    Alcotest.test_case "WAL empty log clean" `Quick test_wal_empty_log_is_clean;
    Alcotest.test_case "CC001 lockset race" `Quick test_cc001_lockset_race;
    Alcotest.test_case "CC002 insufficient mode" `Quick test_cc002_insufficient_mode;
    Alcotest.test_case "CC003 guard lock" `Quick test_cc003_guard_lock;
    Alcotest.test_case "CC004 lock-order cycle" `Quick test_cc004_lock_order_cycle;
    Alcotest.test_case "CC004 subsumes TX010" `Quick test_cc004_subsumes_tx010;
    Alcotest.test_case "CC005 gate lock" `Quick test_cc005_gate_lock;
    Alcotest.test_case "CC006 upgrade deadlock" `Quick test_cc006_upgrade_deadlock;
    Alcotest.test_case "concurrency clean" `Quick test_cc_clean_schedule;
    Alcotest.test_case "SQ001 unsatisfiable selection" `Quick
      test_sq001_unsatisfiable_selection;
    Alcotest.test_case "SQ002 provably empty" `Quick test_sq002_provably_empty;
    Alcotest.test_case "SQ003 redundant join" `Quick test_sq003_redundant_join;
    Alcotest.test_case "SQ004 contained arm" `Quick test_sq004_contained_arm;
    Alcotest.test_case "SQ005 bridged product" `Quick test_sq005_bridged_product;
    Alcotest.test_case "SQ006 bounded recursion" `Quick
      test_sq006_bounded_recursion;
    Alcotest.test_case "SQ007 dead rule" `Quick test_sq007_dead_rule;
    Alcotest.test_case "SQ008 redundant body atom" `Quick
      test_sq008_redundant_body_atom;
    Alcotest.test_case "SQ101-103 certifier bridge" `Quick
      test_sq10x_certifier_bridge;
    Alcotest.test_case "fd spec parsing" `Quick test_sq_fd_spec_parsing;
    Alcotest.test_case "semantic clean" `Quick test_sq_clean_plan;
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json roundtrip real" `Quick test_json_roundtrip_real;
    Alcotest.test_case "json rejects garbage" `Quick test_json_rejects_garbage;
    Alcotest.test_case "exit code policy" `Quick test_exit_code_policy;
    Alcotest.test_case "severity ordering" `Quick test_severity_ordering;
    Alcotest.test_case "pass crash diagnosed" `Quick test_pass_crash_is_diagnosed;
  ]
