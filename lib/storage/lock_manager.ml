(* Shared/exclusive locks with FIFO wait queues and waits-for deadlock
   detection.  See the .mli for the policy discussion; the executor's
   single-threadedness keeps everything here a plain data structure. *)

type mode = Shared | Exclusive

type outcome =
  | Granted
  | Blocked
  | Deadlock of { victim : int; cycle : int list }

type request = { txn : int; mode : mode; since : int }

type item_state = {
  mutable holders : (int * mode) list;  (* one X, or any number of S *)
  mutable waiting : request list;  (* FIFO: head is next in line *)
}

type metrics = {
  m_requests : Obs.Registry.Counter.t;
  m_grants : Obs.Registry.Counter.t;
  m_blocks : Obs.Registry.Counter.t;
  m_deadlocks : Obs.Registry.Counter.t;
  m_timeouts : Obs.Registry.Counter.t;
  m_wait_rounds : Obs.Histogram.t;
  m_queue_depth : Obs.Histogram.t;
  m_waiting : Obs.Registry.Gauge.t;
}

let make_metrics registry =
  let counter = Obs.Registry.counter registry in
  let histogram = Obs.Registry.histogram registry in
  {
    m_requests =
      counter ~unit:"requests" ~help:"acquire calls (including re-issues)"
        "lock.requests";
    m_grants = counter ~unit:"requests" ~help:"requests granted" "lock.grants";
    m_blocks =
      counter ~unit:"requests" ~help:"requests left waiting" "lock.blocks";
    m_deadlocks =
      counter ~unit:"cycles" ~help:"waits-for cycles detected" "lock.deadlocks";
    m_timeouts =
      counter ~unit:"requests" ~help:"lock waits expired by timeout"
        "lock.timeouts";
    m_wait_rounds =
      histogram ~unit:"ticks" ~help:"scheduler ticks a request waited before grant"
        "lock.wait_rounds";
    m_queue_depth =
      histogram ~unit:"requests" ~help:"item queue depth seen at enqueue"
        "lock.queue_depth";
    m_waiting =
      Obs.Registry.gauge registry ~unit:"requests"
        ~help:"requests currently queued" "lock.waiting";
  }

let () = ignore (make_metrics Obs.Registry.declared)

type t = {
  table : (string, item_state) Hashtbl.t;
  timeout : int option;
  victim_pref : int -> int -> int;
  metrics : metrics;
  mutable clock : int;
}

let create ?timeout ?(victim_pref = fun a b -> if a > b then a else b)
    ?(metrics = Obs.Registry.noop) () =
  {
    table = Hashtbl.create 64;
    timeout;
    victim_pref;
    metrics = make_metrics metrics;
    clock = 0;
  }

let state t item =
  match Hashtbl.find_opt t.table item with
  | Some st -> st
  | None ->
      let st = { holders = []; waiting = [] } in
      Hashtbl.add t.table item st;
      st

let conflicts a b = a = Exclusive || b = Exclusive

(* Does [txn]'s current hold on [st] already cover [mode]? *)
let covered st ~txn mode =
  match List.assoc_opt txn st.holders with
  | Some Exclusive -> true
  | Some Shared -> mode = Shared
  | None -> false

(* Can [r] be granted right now, given the holders?  (Queue position is
   the caller's concern.)  The upgrade case — requester already holds
   shared — demands sole ownership. *)
let grantable st r =
  List.for_all
    (fun (h, hm) -> h = r.txn || not (conflicts r.mode hm))
    st.holders

let install st r =
  st.holders <- (r.txn, r.mode) :: List.remove_assoc r.txn st.holders

(* Grant from the head of the queue while the head is grantable — FIFO,
   so one blocked exclusive waiter blocks everything behind it. *)
let rec drain t st =
  match st.waiting with
  | r :: rest when grantable st r ->
      st.waiting <- rest;
      install st r;
      Obs.Histogram.observe t.metrics.m_wait_rounds (t.clock - r.since);
      Obs.Registry.Gauge.add t.metrics.m_waiting (-1);
      drain t st
  | _ -> ()

(* --- the waits-for graph ------------------------------------------------- *)

(* A waiter waits for the conflicting holders of its item and for the
   conflicting requests queued ahead of it (they will hold it first). *)
let edges_of_item st =
  let rec walk ahead = function
    | [] -> []
    | r :: rest ->
        let holder_edges =
          List.filter_map
            (fun (h, hm) ->
              if h <> r.txn && conflicts r.mode hm then Some (r.txn, h)
              else None)
            st.holders
        in
        let queue_edges =
          List.filter_map
            (fun w ->
              if w.txn <> r.txn && conflicts r.mode w.mode then
                Some (r.txn, w.txn)
              else None)
            ahead
        in
        holder_edges @ queue_edges @ walk (ahead @ [ r ]) rest
  in
  walk [] st.waiting

let waits_for t =
  Hashtbl.fold (fun _ st acc -> edges_of_item st @ acc) t.table []
  |> List.sort_uniq compare

let find_cycle edges =
  let succs n = List.filter_map (fun (a, b) -> if a = n then Some b else None) edges in
  let nodes = List.sort_uniq Int.compare (List.concat_map (fun (a, b) -> [ a; b ]) edges) in
  let done_ = Hashtbl.create 16 in
  (* DFS with an explicit path; a back edge onto the path closes a cycle *)
  let rec dfs path n =
    if Hashtbl.mem done_ n then None
    else
      match List.mapi (fun i m -> (i, m)) path |> List.find_opt (fun (_, m) -> m = n) with
      | Some (i, _) ->
          (* path is newest-first: the cycle is n's suffix up to position i *)
          let rec take k = function
            | [] -> []
            | x :: xs -> if k < 0 then [] else x :: take (k - 1) xs
          in
          Some (List.rev (take i path))
      | None -> (
          match List.find_map (fun m -> dfs (n :: path) m) (succs n) with
          | Some c -> Some c
          | None ->
              Hashtbl.replace done_ n ();
              None)
  in
  List.find_map (fun n -> dfs [] n) nodes

let choose_victim t cycle =
  match cycle with
  | [] -> invalid_arg "Lock_manager.choose_victim: empty cycle"
  | first :: rest -> List.fold_left t.victim_pref first rest

(* --- the public operations ------------------------------------------------ *)

let acquire t ~txn ~item mode =
  Obs.Registry.Counter.incr t.metrics.m_requests;
  let granted () =
    Obs.Registry.Counter.incr t.metrics.m_grants;
    Granted
  in
  let st = state t item in
  if covered st ~txn mode then granted ()
  else begin
    let r =
      match List.find_opt (fun r -> r.txn = txn) st.waiting with
      | Some r -> r  (* re-issued: keep the original queue position *)
      | None ->
          let r = { txn; mode; since = t.clock } in
          st.waiting <- st.waiting @ [ r ];
          Obs.Registry.Gauge.add t.metrics.m_waiting 1;
          Obs.Histogram.observe t.metrics.m_queue_depth
            (List.length st.waiting);
          r
    in
    (* the upgrade exception: a sole holder upgrading S->X jumps the
       queue (holding S already, it can never conflict with itself) *)
    let sole_upgrade =
      mode = Exclusive
      && List.assoc_opt txn st.holders = Some Shared
      && List.for_all (fun (h, _) -> h = txn) st.holders
    in
    if sole_upgrade then begin
      if List.exists (fun w -> w.txn = txn) st.waiting then begin
        st.waiting <- List.filter (fun w -> w.txn <> txn) st.waiting;
        Obs.Registry.Gauge.add t.metrics.m_waiting (-1)
      end;
      install st { r with mode = Exclusive };
      drain t st;
      granted ()
    end
    else begin
      drain t st;
      if covered st ~txn mode then granted ()
      else
        match find_cycle (waits_for t) with
        | Some cycle ->
            Obs.Registry.Counter.incr t.metrics.m_deadlocks;
            Deadlock { victim = choose_victim t cycle; cycle }
        | None ->
            Obs.Registry.Counter.incr t.metrics.m_blocks;
            Blocked
    end
  end

let release_all t ~txn =
  Hashtbl.iter
    (fun _ st ->
      st.holders <- List.remove_assoc txn st.holders;
      let before = List.length st.waiting in
      st.waiting <- List.filter (fun r -> r.txn <> txn) st.waiting;
      let removed = before - List.length st.waiting in
      if removed > 0 then
        Obs.Registry.Gauge.add t.metrics.m_waiting (-removed);
      drain t st)
    t.table

let tick t =
  t.clock <- t.clock + 1;
  match t.timeout with
  | None -> []
  | Some limit ->
      let expired =
        Hashtbl.fold
          (fun _ st acc ->
            List.fold_left
              (fun acc r ->
                if t.clock - r.since > limit then r.txn :: acc else acc)
              acc st.waiting)
          t.table []
        |> List.sort_uniq Int.compare
      in
      Obs.Registry.Counter.add t.metrics.m_timeouts (List.length expired);
      expired

let holders t ~item =
  match Hashtbl.find_opt t.table item with Some st -> st.holders | None -> []

let waiters t ~item =
  match Hashtbl.find_opt t.table item with
  | Some st -> List.map (fun r -> (r.txn, r.mode)) st.waiting
  | None -> []

let holds t ~txn ~item =
  match Hashtbl.find_opt t.table item with
  | Some st -> List.assoc_opt txn st.holders
  | None -> None

let no_conflicts t =
  Hashtbl.fold
    (fun _ st ok ->
      ok
      && List.length (List.sort_uniq compare (List.map fst st.holders))
         = List.length st.holders
      && (match st.holders with
         | [] | [ _ ] -> true
         | many -> List.for_all (fun (_, m) -> m = Shared) many))
    t.table true
