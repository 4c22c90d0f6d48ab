(* perfbench: the end-to-end benchmark of dbmeta's storage, planner and
   commit layers.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
                   --data DIR --dbmeta PATH [--fs TYPE] [--setup-only]

   One process, one closed-loop client.  A run sets the workload up, then
   makes an untraced pass of a fixed number of ops, sized from --seconds
   at the workload's nominal rate so that every count repeats exactly for
   a seed.  Set-up time is the median of seven more set-ups, each made by
   a child process of its own (--setup-only) in a directory of its own:
   one before each sixth of the untraced pass and one after it, so that
   the samples spread over the run.  With --trace 1 it sets up once more
   and makes a traced pass over the same ops, which gives the per-layer
   table.  Every answer is checked, and the last line
   of standard output is one JSON object with the end-to-end metrics
   (--trace 0) or the per-layer metrics (--trace 1).  Exits 1 if any
   check failed.  perfbench/run.py builds this and supplies --data,
   --dbmeta and --fs. *)

module W = Workloads

let workload = ref ""
let seed = ref 1
let seconds = ref 10
let traced = ref 0
let data = ref ""
let dbmeta = ref ""
let fs = ref "unknown"
let setup_only = ref false

let specs =
  [
    ( "--workload",
      Arg.Set_string workload,
      "NAME  cli_read | session_read | write_cli | txn_commit" );
    ("--seed", Arg.Set_int seed, "N  workload seed");
    ("--seconds", Arg.Set_int seconds, "S  nominal length of the measured pass");
    ( "--trace",
      Arg.Set_int traced,
      "0|1  also make the traced pass; report per-layer metrics" );
    ( "--data",
      Arg.Set_string data,
      "DIR  where the database files go (a disk-backed filesystem)" );
    ( "--dbmeta",
      Arg.Set_string dbmeta,
      "PATH  the built dbmeta, for the rendering cross-check" );
    ( "--fs",
      Arg.Set_string fs,
      "TYPE  the data directory's filesystem, printed with the results" );
    ( "--setup-only",
      Arg.Set setup_only,
      " make one set-up in DIR/NAME.setup, print its wall time in seconds, remove \
       it and exit" );
  ]

let usage =
  "perfbench --workload NAME --seed N --seconds S --trace 0|1 --data DIR \
   --dbmeta PATH"

(* set-ups timed per run, spread over the untraced pass *)
let setup_samples = 7

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let fresh cfg =
  rm_rf cfg.W.dir;
  mkdir_p (W.db_dir cfg)

let show_count = function Some v -> string_of_int v | None -> "-"

let () =
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let spec =
    match List.find_opt (fun s -> s.W.name = !workload) W.all with
    | Some s -> s
    | None ->
        prerr_endline ("perfbench: unknown workload " ^ !workload ^ "\n" ^ usage);
        exit 2
  in
  if !data = "" || !dbmeta = "" || !seconds < 1 then begin
    prerr_endline usage;
    exit 2
  end;
  (* a whole number of class cycles, and at least 200 ops for the p95 *)
  let n =
    let cycle = Array.length spec.W.classes in
    let want = max 200 (int_of_float (spec.W.rate *. float !seconds)) in
    (want + cycle - 1) / cycle * cycle
  in
  let cfg = { W.dir = Filename.concat !data spec.W.name; seed = !seed; dbmeta = !dbmeta } in
  let quiet = Probe.make ~traced:false ~trace_capacity:1 in
  if !setup_only then begin
    let cfg = { cfg with W.dir = cfg.W.dir ^ ".setup" } in
    fresh cfg;
    let t0 = Probe.now_ns () in
    let inst = spec.W.setup quiet cfg in
    let s = float (Probe.now_ns () - t0) /. 1e9 in
    inst.W.discard ();
    rm_rf cfg.W.dir;
    Printf.printf "%.9f\n" s;
    exit 0
  end;
  Printf.printf "perfbench %s: seed %d, %d ops (%d s at %.0f ops/s nominal), trace %d\n"
    spec.W.name !seed n !seconds spec.W.rate !traced;
  Printf.printf
    "data: %s on %s; flush policy: the engine's own (a WAL fsync per commit, a pager \
     fsync per checkpoint); buffer pool 64 frames\n"
    cfg.W.dir !fs;
  (* one set-up, timed by a child process of its own *)
  let setup_times = ref [] in
  let sample_setup () =
    let args =
      [| Sys.executable_name; "--setup-only"; "--workload"; spec.W.name; "--seed";
         string_of_int !seed; "--data"; !data; "--dbmeta"; !dbmeta |]
    in
    let ic = Unix.open_process_args_in Sys.executable_name args in
    let out = In_channel.input_all ic in
    match (Unix.close_process_in ic, float_of_string_opt (String.trim out)) with
    | Unix.WEXITED 0, Some s -> setup_times := s :: !setup_times
    | _ -> failwith ("perfbench: a set-up failed: " ^ out)
  in
  fresh cfg;
  let inst = spec.W.setup quiet cfg in
  Gc.compact ();
  let untraced =
    Pass.run ~pauses:(setup_samples - 1, sample_setup) spec cfg quiet inst ~n
  in
  let setup_times = List.rev !setup_times in
  let setup_s = Probe.median setup_times in
  Printf.printf "setup: %s s (median %.4f)\n"
    (String.concat " " (List.map (Printf.sprintf "%.4f") setup_times))
    setup_s;
  let counts = Pass.guarded untraced in
  let trace_pass =
    if !traced = 0 then None
    else begin
      fresh cfg;
      let probe =
        Probe.make ~traced:true ~trace_capacity:((n * spec.W.spans_per_op) + 100_000)
      in
      let inst = spec.W.setup probe cfg in
      Gc.compact ();
      Some (Pass.run spec cfg probe inst ~n)
    end
  in
  let digests = Filename.concat !data "digests" in
  mkdir_p digests;
  let drifts =
    (match trace_pass with
    | Some t ->
        List.map (fun d -> ("the traced pass", d)) (Pass.drift counts (Pass.guarded t))
    | None -> [])
    @ List.map
        (fun d -> ("an earlier run", d))
        (Pass.against_earlier ~dir:digests
           ~key:(Printf.sprintf "%s-seed%d-n%d" spec.W.name !seed n)
           counts)
  in
  Printf.printf "untraced pass: %d ops, %.2f ops/s, op p95 %.3f ms over %d samples\n" n
    (Pass.ops_per_s untraced)
    (Probe.quantile 0.95 (Pass.op_ms untraced))
    n;
  Metrics.print_classes spec untraced;
  Printf.printf "host.ref_kernel_ms: median %.4f over %d samples\n"
    (Probe.median untraced.Pass.kernel_ms)
    (List.length untraced.Pass.kernel_ms);
  let passes = untraced :: Option.to_list trace_pass in
  let attempted = List.fold_left (fun a p -> a + Pass.ops p) 0 passes in
  let failed = List.fold_left (fun a p -> a + Pass.failed p) 0 passes in
  Printf.printf "checks (fail_ratio %.4f: %d of %d ops failed):\n"
    (Pass.ratio failed attempted) failed attempted;
  List.iter Metrics.print_checks passes;
  List.iter
    (fun p ->
      List.iter
        (fun (i, why) -> Printf.printf "  op %d (%s): %s\n" i (Pass.class_of p i) why)
        p.Pass.failures)
    passes;
  Printf.printf "determinism: %s\n" (if drifts = [] then "ok, counts repeat" else "DRIFT");
  List.iter
    (fun (against, (name, a, b)) ->
      Printf.printf "  %s: %s here, %s in %s\n" name (show_count a) (show_count b) against)
    drifts;
  let trace_ok =
    match trace_pass with
    | None -> true
    | Some t ->
        Printf.printf "traced pass: %.2f ops/s, %d spans recorded, %d dropped\n"
          (Pass.ops_per_s t) t.Pass.spans t.Pass.dropped;
        Metrics.print_findings spec t;
        t.Pass.dropped = 0 && List.for_all (fun (_, c) -> c >= 90.) (Pass.coverage t)
  in
  let correct =
    failed = 0 && drifts = [] && trace_ok
    && List.for_all (fun p -> List.for_all snd p.Pass.checks) passes
  in
  let metrics =
    match trace_pass with
    | None -> Metrics.end_to_end spec untraced ~setup_s
    | Some t -> Metrics.per_layer ~untraced t
  in
  print_endline "metrics:";
  Metrics.print_metrics metrics;
  Metrics.print_json ~correct ~attempted ~failed metrics;
  exit (if correct then 0 else 1)
