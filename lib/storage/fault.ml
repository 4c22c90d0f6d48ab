exception Crash of string
exception Io_error of string

type crash_info = { site : string; io_index : int }

(* --- specs: the --faults mini-language ---------------------------------- *)

type rule = { scope : string option; prob : float }

type spec = {
  crash_after : int option;
  torn : rule list;
  flip : rule list;
  eio : rule list;
  drop : rule list;
  delay : rule list;
  part : rule list;
  seed : int option;
}

let no_faults =
  {
    crash_after = None;
    torn = [];
    flip = [];
    eio = [];
    drop = [];
    delay = [];
    part = [];
    seed = None;
  }

let grammar =
  "the grammar is crash=N, seed=N, torn|flip|eio[@site]=PROB, \
   drop|delay|part[@site]=PROB"

let spec_of_string s =
  let fail fmt =
    Printf.ksprintf (fun msg -> invalid_arg (msg ^ "; " ^ grammar)) fmt
  in
  let parse_clause spec clause =
    match String.index_opt clause '=' with
    | None -> fail "fault clause %S has no '='" clause
    | Some i -> (
        let key = String.sub clause 0 i in
        let v = String.sub clause (i + 1) (String.length clause - i - 1) in
        let kind, scope =
          match String.index_opt key '@' with
          | None -> (key, None)
          | Some j ->
              let site = String.sub key (j + 1) (String.length key - j - 1) in
              if site = "" then fail "empty @site in fault clause %S" clause;
              (String.sub key 0 j, Some site)
        in
        let prob () =
          match float_of_string_opt v with
          | Some p when p >= 0. && p <= 1. -> p
          | _ ->
              fail "fault clause %S needs a probability in [0,1], got %S" clause
                v
        in
        let int () =
          match int_of_string_opt v with
          | Some n when n >= 0 -> n
          | _ ->
              fail "fault clause %S needs a nonnegative integer, got %S" clause
                v
        in
        let unscoped () =
          if scope <> None then
            fail "fault kind %S takes no @site scope (clause %S)" kind clause
        in
        let rule () = { scope; prob = prob () } in
        match kind with
        | "crash" ->
            unscoped ();
            { spec with crash_after = Some (int ()) }
        | "seed" ->
            unscoped ();
            { spec with seed = Some (int ()) }
        | "torn" -> { spec with torn = spec.torn @ [ rule () ] }
        | "flip" -> { spec with flip = spec.flip @ [ rule () ] }
        | "eio" -> { spec with eio = spec.eio @ [ rule () ] }
        | "drop" -> { spec with drop = spec.drop @ [ rule () ] }
        | "delay" -> { spec with delay = spec.delay @ [ rule () ] }
        | "part" -> { spec with part = spec.part @ [ rule () ] }
        | _ -> fail "unknown fault kind %S in clause %S" kind clause)
  in
  String.split_on_char ',' s
  |> List.filter (fun c -> String.trim c <> "")
  |> List.map String.trim
  |> List.fold_left parse_clause no_faults

let spec_to_string spec =
  let rules kind l =
    List.map
      (fun { scope; prob } ->
        match scope with
        | None -> Printf.sprintf "%s=%g" kind prob
        | Some s -> Printf.sprintf "%s@%s=%g" kind s prob)
      l
  in
  let clauses =
    (match spec.crash_after with
    | Some n -> [ Printf.sprintf "crash=%d" n ]
    | None -> [])
    @ rules "torn" spec.torn @ rules "flip" spec.flip @ rules "eio" spec.eio
    @ rules "drop" spec.drop @ rules "delay" spec.delay
    @ rules "part" spec.part
    @ (match spec.seed with Some n -> [ Printf.sprintf "seed=%d" n ] | None -> [])
  in
  String.concat "," clauses

(* --- the injector -------------------------------------------------------- *)

type t = {
  mutable budget : int option;
  mutable crashed : crash_info option;
  mutable ios : int;
  mutable rng : Support.Rng.t;
  mutable spec : spec;
  mutable registry : Obs.Registry.t;
}

let create () =
  {
    budget = None;
    crashed = None;
    ios = 0;
    rng = Support.Rng.create 0;
    spec = no_faults;
    registry = Obs.Registry.noop;
  }

let set_metrics t registry = t.registry <- registry

(* Site names carry page ids ("page 12 write"); metric names must form a
   closed set, so digit runs normalize to "N", and spaces and dots (which
   would split the family) to "_". *)
let normalize_site at =
  let buf = Buffer.create (String.length at) in
  let in_digits = ref false in
  String.iter
    (fun c ->
      match c with
      | '0' .. '9' ->
          if not !in_digits then Buffer.add_char buf 'N';
          in_digits := true
      | c ->
          in_digits := false;
          Buffer.add_char buf (if c = ' ' || c = '.' then '_' else c))
    at;
  Buffer.contents buf

(* The counter [fault.<kind>.<site>]; the site "*" names the kind's
   family, which is how each kind is declared. *)
let site_counter registry kind site =
  Obs.Registry.counter registry ~unit:"events"
    ~help:(Printf.sprintf "injected %s faults fired at this site" kind)
    (Printf.sprintf "fault.%s.%s" kind site)

let () =
  List.iter
    (fun kind -> ignore (site_counter Obs.Registry.declared kind "*"))
    [ "crash"; "torn"; "flip"; "eio"; "drop"; "delay"; "part" ]

let fired t kind ~at =
  Obs.Registry.Counter.incr (site_counter t.registry kind (normalize_site at))

let configure t spec =
  t.budget <- spec.crash_after;
  t.spec <- spec;
  t.rng <- Support.Rng.create (match spec.seed with Some s -> s | None -> 0)

let arm t n =
  if n < 0 then invalid_arg "Fault.arm: negative budget";
  t.budget <- Some n

let crashed_at t = t.crashed

let io t ~at ~on_crash =
  match t.budget with
  | None -> t.ios <- t.ios + 1
  | Some n when n > 0 ->
      t.budget <- Some (n - 1);
      t.ios <- t.ios + 1
  | Some _ ->
      t.budget <- None;
      (* the uniform payload: every site records where and when *)
      t.crashed <- Some { site = at; io_index = t.ios };
      fired t "crash" ~at;
      on_crash ();
      raise (Crash at)

(* A site-scoped probability: the strongest matching rule wins. *)
let prob rules ~at =
  List.fold_left
    (fun acc { scope; prob } ->
      let matches =
        match scope with
        | None -> true
        | Some s ->
            let ls = String.length s and lat = String.length at in
            let rec scan i =
              i + ls <= lat && (String.sub at i ls = s || scan (i + 1))
            in
            scan 0
      in
      if matches then Float.max acc prob else acc)
    0. rules

let draw t rules ~at =
  let p = prob rules ~at in
  p > 0. && Support.Rng.float t.rng 1.0 < p

let torn_write t ~at =
  let fires = draw t t.spec.torn ~at in
  if fires then fired t "torn" ~at;
  fires

let bit_flip t ~at ~len =
  if len > 0 && draw t t.spec.flip ~at then begin
    fired t "flip" ~at;
    Some (Support.Rng.int t.rng (len * 8))
  end
  else None

let transient t ~at =
  let fires = draw t t.spec.eio ~at in
  if fires then fired t "eio" ~at;
  fires

let max_retries = 8

(* Each retry draws afresh, so a sub-certain failure probability always
   yields eventual success; a fault surviving every retry escapes. *)
let with_retries t ~at ?(on_retry = ignore) f =
  let retries = ref 0 in
  while transient t ~at do
    if !retries >= max_retries then raise (Io_error at);
    on_retry ();
    incr retries
  done;
  f ()

(* --- the message-fault family (distributed commit) ----------------------- *)

let dropped t ~at =
  let fires = draw t t.spec.drop ~at in
  if fires then fired t "drop" ~at;
  fires

let delay_ticks t ~at ~max =
  if max > 0 && draw t t.spec.delay ~at then begin
    fired t "delay" ~at;
    Some (1 + Support.Rng.int t.rng max)
  end
  else None

let partitioned t ~at =
  let fires = draw t t.spec.part ~at in
  if fires then fired t "part" ~at;
  fires

let flip_coin t = Support.Rng.int t.rng 2 = 0

