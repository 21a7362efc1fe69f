module J = Bisram_obs.Json
module Obs = Bisram_obs.Obs
module Chaos = Bisram_chaos.Chaos

let version = "bisram-explore-cache/4"

type stats = {
  st_hits : int;
  st_misses : int;
  st_shared : int;
  st_quarantined : int;
  st_reaped_tmp : int;
  st_io_errors : int;
}

type t = {
  dir : string option;
  resume : bool;
  computed : J.t Once.t;  (** this run's normalized values by key *)
  hits : int Atomic.t;
  misses : int Atomic.t;
  shared : int Atomic.t;
  quarantined : int Atomic.t;
  reaped_tmp : int Atomic.t;
  io_errors : int Atomic.t;
}

(* Orphaned temp files are the residue of a run killed between
   open_temp_file and rename; they can never become entries (their
   names are not digests), only accumulate.  Reaped once per cache
   open — failures are ignored: reaping is hygiene, not correctness. *)
let reap_tmp dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | names ->
      Array.fold_left
        (fun n name ->
          if
            String.length name > 11
            && String.sub name 0 7 = ".cache-"
            && Filename.check_suffix name ".tmp"
          then (
            match Sys.remove (Filename.concat dir name) with
            | () -> n + 1
            | exception Sys_error _ -> n)
          else n)
        0 names

let create ?dir ~resume () =
  let reaped =
    match dir with
    | None -> 0
    | Some d ->
        if Sys.file_exists d then begin
          if not (Sys.is_directory d) then
            raise (Sys_error (d ^ ": not a directory"))
        end
        else Sys.mkdir d 0o755;
        reap_tmp d
  in
  if reaped > 0 then begin
    Obs.add "cache.reaped_tmp" reaped;
    Obs.emit ~level:Obs.Warn ~domain:"cache" "cache.reap_tmp"
      [ ("reaped", J.Int reaped) ]
  end;
  { dir
  ; resume
  ; computed = Once.create ()
  ; hits = Atomic.make 0
  ; misses = Atomic.make 0
  ; shared = Atomic.make 0
  ; quarantined = Atomic.make 0
  ; reaped_tmp = Atomic.make reaped
  ; io_errors = Atomic.make 0
  }

let full_key key = version ^ "|" ^ key

let path_of t key =
  match t.dir with
  | None -> None
  | Some d ->
      Some (Filename.concat d (Digest.to_hex (Digest.string (full_key key)) ^ ".json"))

(* The entry document: the full key travels with the value so a digest
   collision or stale format is detected on read instead of silently
   returning the wrong result, and the value's own serialization is
   digested so bit rot {e inside} the value is detected too — a flipped
   byte in a float or a field name still parses as JSON with an intact
   key, which key verification alone would happily serve (found by the
   chaos harness, cache-format /1 -> /2). *)
let value_digest v = Digest.to_hex (Digest.string (J.to_string v))

let entry_string key value =
  (* One parse round first: serialization is only re-serialization-
     stable for values that came out of the parser (a fresh float like
     1.0479e+09 can round, at 9 significant digits, to an
     integer-valued double that re-prints as 1047935990.0), and the
     digest must be over the stable form the reader will recompute. *)
  let value =
    match J.of_string (J.to_string value) with
    | Ok v -> v
    | Error _ -> value
  in
  J.to_string
    (J.Obj
       [ ("key", J.String (full_key key))
       ; ("digest", J.String (value_digest value))
       ; ("value", value)
       ])

let parse_entry key s =
  match J.of_string s with
  | Error _ -> None
  | Ok doc -> (
      match (J.member "key" doc, J.member "digest" doc, J.member "value" doc) with
      | Some (J.String k), Some (J.String d), Some v
        when String.equal k (full_key key) && String.equal d (value_digest v)
        ->
          Some v
      | _ -> None)

(* An entry that exists but fails verification (invalid JSON, truncated
   bytes, wrong embedded key) is moved aside rather than deleted: the
   damaged bytes stay available for a post-mortem, the digest slot is
   freed for the recomputed entry, and the rename is atomic so
   concurrent readers see either the bad entry or none.  Quarantining
   is itself best-effort — if even the rename fails we fall back to
   remove, and if that fails the entry is simply left to fail
   verification again next time. *)
let quarantine t key path =
  Atomic.incr t.quarantined;
  Obs.incr "cache.quarantined";
  Obs.emit ~level:Obs.Warn ~domain:"cache" "cache.quarantine"
    [ ("key", J.String key); ("path", J.String path) ];
  match Sys.rename path (path ^ ".quarantine") with
  | () -> ()
  | exception Sys_error _ -> (
      try Sys.remove path with Sys_error _ -> ())

let lookup t key =
  if not t.resume then None
  else
    match path_of t key with
    | None -> None
    | Some path ->
        if not (Sys.file_exists path) then None
        else (
          match In_channel.with_open_bin path In_channel.input_all with
          | exception Sys_error _ ->
              (* the file is there but unreadable (EIO, permissions):
                 degrade to a miss, recompute uncached *)
              Atomic.incr t.io_errors;
              Obs.incr "cache.io_errors";
              None
          | s -> (
              (* chaos seam: a deterministic injector may hand back a
                 corrupted view of the on-disk bytes *)
              let s =
                match Chaos.corrupt ~key s with Some c -> c | None -> s
              in
              match parse_entry key s with
              | Some v -> Some v
              | None ->
                  quarantine t key path;
                  None))

(* serialize + re-parse: the value every caller sees is exactly the
   value a later warm run will parse back from the entry's bytes *)
let normalize key s =
  match parse_entry key s with
  | Some v -> v
  | None -> invalid_arg "Cache.memo: evaluator result does not round-trip"

(* Store failures (ENOSPC, EIO, a full temp dir, injected chaos) never
   surface to the caller: the value was computed, the run continues
   uncached, and the counter records that the disk lost an entry. *)
let store t key s =
  match path_of t key with
  | None -> ()
  | Some path -> (
      match
        if Chaos.write_fails ~key then
          raise (Sys_error "chaos: injected cache write failure");
        Bisram_obs.Atomic_file.write ~prefix:".cache-" path s
      with
      | () -> ()
      | exception Sys_error _ ->
          Atomic.incr t.io_errors;
          Obs.incr "cache.io_errors")

let debug name key =
  if Obs.would_log Obs.Debug then
    Obs.emit ~level:Obs.Debug ~domain:"cache" name [ ("key", J.String key) ]

(* Disk first (only under [resume]), so a warm run hits on every
   evaluation; then this run's table, so a key computed earlier in the
   run, or being computed by another worker, is neither recomputed,
   stored nor parsed again; only then compute.  Each distinct key is
   therefore computed once per run at any number of workers. *)
let memo t ~key compute =
  match lookup t key with
  | Some v ->
      Atomic.incr t.hits;
      Obs.incr "cache.hits";
      debug "cache.hit" key;
      v
  | None -> (
      match Once.claim t.computed key with
      | Some v ->
          Atomic.incr t.shared;
          Obs.incr "cache.shared";
          debug "cache.shared" key;
          v
      | None ->
          Atomic.incr t.misses;
          Obs.incr "cache.misses";
          debug "cache.miss" key;
          Once.fill t.computed key (fun () ->
              let s = entry_string key (compute ()) in
              store t key s;
              normalize key s))

let stats t =
  { st_hits = Atomic.get t.hits
  ; st_misses = Atomic.get t.misses
  ; st_shared = Atomic.get t.shared
  ; st_quarantined = Atomic.get t.quarantined
  ; st_reaped_tmp = Atomic.get t.reaped_tmp
  ; st_io_errors = Atomic.get t.io_errors
  }
