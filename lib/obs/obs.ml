module Clock = Bisram_parallel.Clock

(* ------------------------------------------------------------------ *)
(* switches *)

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

type level = Debug | Info | Warn

let level_rank = function Debug -> 0 | Info -> 1 | Warn -> 2

(* the event floor packed as one int so a single Atomic covers both
   "on?" and "which level?": a rank above Warn's means off *)
let events_off = 3
let event_floor = Atomic.make events_off

let set_event_level = function
  | None -> Atomic.set event_floor events_off
  | Some l -> Atomic.set event_floor (level_rank l)

let would_log l = level_rank l >= Atomic.get event_floor

(* ------------------------------------------------------------------ *)
(* per-domain shards

   Every domain that touches the registry gets its own shard (via
   [Domain.DLS]), so the instrumented hot paths never contend: an
   increment is a hashtable hit plus an int-ref bump on memory only the
   owning domain writes, an event a cons onto the same shard.  Shards
   register themselves in a global list (mutex-taken once per domain,
   at first use) and stay registered after their domain dies, which is
   what lets {!snapshot} and {!drain_events} merge the work of pool
   workers after the joins.  One shard per domain means a span's [tid]
   and an event's [ev_tid] name the same domain. *)

let n_buckets = 63

type hist = {
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_min : int;
  mutable h_max : int;
  h_buckets : int array;  (* index k counts values in [2^k, 2^(k+1)) *)
}

type span_ev = {
  sp_name : string;
  sp_cat : string;
  sp_arg : (string * int) option;
  sp_ts : int64;  (* Clock.now_ns at entry *)
  sp_dur : int64;
  sp_shard : int;
}

type event = {
  ev_seq : int;
  ev_tid : int;
  ev_ts_ns : int64;
  ev_level : level;
  ev_domain : string;
  ev_name : string;
  ev_fields : (string * Json.t) list;
}

type shard = {
  sh_id : int;
  sh_counters : (string, int ref) Hashtbl.t;
  sh_hists : (string, hist) Hashtbl.t;
  mutable sh_spans : span_ev list;
  mutable sh_seq : int;
  mutable sh_events : event list;  (* newest first *)
}

let mu = Mutex.create ()
let all_shards : shard list ref = ref []

let shard_key =
  Domain.DLS.new_key (fun () ->
      Mutex.lock mu;
      let s =
        { sh_id = List.length !all_shards
        ; sh_counters = Hashtbl.create 32
        ; sh_hists = Hashtbl.create 16
        ; sh_spans = []
        ; sh_seq = 0
        ; sh_events = []
        }
      in
      all_shards := s :: !all_shards;
      Mutex.unlock mu;
      s)

let shard () = Domain.DLS.get shard_key

let reset () =
  Mutex.lock mu;
  List.iter
    (fun s ->
      Hashtbl.reset s.sh_counters;
      Hashtbl.reset s.sh_hists;
      s.sh_spans <- [];
      s.sh_seq <- 0;
      s.sh_events <- [])
    !all_shards;
  Mutex.unlock mu

(* ------------------------------------------------------------------ *)
(* recording *)

let add name v =
  if enabled () then begin
    let s = shard () in
    match Hashtbl.find_opt s.sh_counters name with
    | Some r -> r := !r + v
    | None -> Hashtbl.add s.sh_counters name (ref v)
  end

let incr name = add name 1

let bucket_of v =
  let rec go k v = if v <= 1 then k else go (k + 1) (v lsr 1) in
  if v <= 0 then 0 else min (n_buckets - 1) (go 0 v)

let observe name v =
  if enabled () then begin
    let s = shard () in
    let h =
      match Hashtbl.find_opt s.sh_hists name with
      | Some h -> h
      | None ->
          let h =
            { h_count = 0
            ; h_sum = 0
            ; h_min = max_int
            ; h_max = min_int
            ; h_buckets = Array.make n_buckets 0
            }
          in
          Hashtbl.add s.sh_hists name h;
          h
    in
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum + v;
    if v < h.h_min then h.h_min <- v;
    if v > h.h_max then h.h_max <- v;
    let b = bucket_of v in
    h.h_buckets.(b) <- h.h_buckets.(b) + 1
  end

let span ?(cat = "span") ?arg name f =
  if not (enabled ()) then f ()
  else begin
    let t0 = Clock.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Clock.now_ns () in
        let s = shard () in
        s.sh_spans <-
          { sp_name = name
          ; sp_cat = cat
          ; sp_arg = arg
          ; sp_ts = t0
          ; sp_dur = Int64.sub t1 t0
          ; sp_shard = s.sh_id
          }
          :: s.sh_spans)
      f
  end

(* runs on each pool worker's own domain, so it writes that domain's
   shard without contention *)
let pool_probe () =
  if not (enabled ()) then None
  else
    Some
      (fun ~worker ~busy_ns ~total_ns ~items ->
        let p = Printf.sprintf "pool.worker%d." worker in
        add (p ^ "busy_ns") (Int64.to_int busy_ns);
        add (p ^ "idle_ns") (Int64.to_int (Int64.sub total_ns busy_ns));
        add (p ^ "items") items)

let emit ?(level = Info) ~domain name fields =
  if would_log level then begin
    let s = shard () in
    let seq = s.sh_seq in
    s.sh_seq <- seq + 1;
    s.sh_events <-
      { ev_seq = seq
      ; ev_tid = s.sh_id
      ; ev_ts_ns = Clock.now_ns ()
      ; ev_level = level
      ; ev_domain = domain
      ; ev_name = name
      ; ev_fields = fields
      }
      :: s.sh_events
  end

(* ------------------------------------------------------------------ *)
(* snapshot / merge *)

type hist_snapshot = {
  count : int;
  sum : int;
  min : int;
  max : int;
  buckets : (int * int) list;  (* (bucket exponent, count), sorted *)
}

type span_snapshot = {
  name : string;
  cat : string;
  arg : (string * int) option;
  ts_ns : int64;
  dur_ns : int64;
  tid : int;
}

type snapshot = {
  counters : (string * int) list;
  hists : (string * hist_snapshot) list;
  spans : span_snapshot list;
}

let snapshot () =
  Mutex.lock mu;
  let shards = !all_shards in
  Mutex.unlock mu;
  (* counter sums are order-independent, so merging shard-by-shard is
     deterministic whatever the registration order was *)
  let counters : (string, int) Hashtbl.t = Hashtbl.create 32 in
  let hists : (string, hist) Hashtbl.t = Hashtbl.create 16 in
  let spans = ref [] in
  List.iter
    (fun s ->
      Hashtbl.iter
        (fun name r ->
          Hashtbl.replace counters name
            (!r + Option.value ~default:0 (Hashtbl.find_opt counters name)))
        s.sh_counters;
      Hashtbl.iter
        (fun name h ->
          match Hashtbl.find_opt hists name with
          | None ->
              Hashtbl.add hists name
                { h_count = h.h_count
                ; h_sum = h.h_sum
                ; h_min = h.h_min
                ; h_max = h.h_max
                ; h_buckets = Array.copy h.h_buckets
                }
          | Some acc ->
              acc.h_count <- acc.h_count + h.h_count;
              acc.h_sum <- acc.h_sum + h.h_sum;
              if h.h_min < acc.h_min then acc.h_min <- h.h_min;
              if h.h_max > acc.h_max then acc.h_max <- h.h_max;
              Array.iteri
                (fun i c -> acc.h_buckets.(i) <- acc.h_buckets.(i) + c)
                h.h_buckets)
        s.sh_hists;
      List.iter
        (fun ev ->
          spans :=
            { name = ev.sp_name
            ; cat = ev.sp_cat
            ; arg = ev.sp_arg
            ; ts_ns = ev.sp_ts
            ; dur_ns = ev.sp_dur
            ; tid = ev.sp_shard
            }
            :: !spans)
        s.sh_spans)
    shards;
  let sorted_assoc tbl f =
    Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let hist_snap h =
    { count = h.h_count
    ; sum = h.h_sum
    ; min = h.h_min
    ; max = h.h_max
    ; buckets =
        (let acc = ref [] in
         for i = n_buckets - 1 downto 0 do
           if h.h_buckets.(i) > 0 then acc := (i, h.h_buckets.(i)) :: !acc
         done;
         !acc)
    }
  in
  { counters = sorted_assoc counters Fun.id
  ; hists = sorted_assoc hists hist_snap
  ; spans =
      List.sort
        (fun a b ->
          match Int64.compare a.ts_ns b.ts_ns with
          | 0 -> (
              match Int.compare a.tid b.tid with
              | 0 -> String.compare a.name b.name
              | c -> c)
          | c -> c)
        !spans
  }

let drain_events () =
  Mutex.lock mu;
  let evs =
    List.fold_left
      (fun acc s ->
        let evs = s.sh_events in
        s.sh_events <- [];
        List.rev_append evs acc)
      [] !all_shards
  in
  Mutex.unlock mu;
  List.sort
    (fun a b ->
      match Int64.compare a.ev_ts_ns b.ev_ts_ns with
      | 0 -> (
          match Int.compare a.ev_tid b.ev_tid with
          | 0 -> Int.compare a.ev_seq b.ev_seq
          | c -> c)
      | c -> c)
    evs
