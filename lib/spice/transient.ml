type waveform = { times : float array; volts : float array }
type result = { nets : int; samples : waveform array }

(* Dense Gaussian elimination with partial pivoting; systems here are
   leaf-cell sized (tens of nets), so O(n^3) per step is fine. *)
let solve a b =
  let n = Array.length b in
  for col = 0 to n - 1 do
    let piv = ref col in
    for r = col + 1 to n - 1 do
      if abs_float a.(r).(col) > abs_float a.(!piv).(col) then piv := r
    done;
    if !piv <> col then begin
      let tmp = a.(col) in
      a.(col) <- a.(!piv);
      a.(!piv) <- tmp;
      let tb = b.(col) in
      b.(col) <- b.(!piv);
      b.(!piv) <- tb
    end;
    let d = a.(col).(col) in
    if abs_float d < 1e-30 then failwith "Transient.solve: singular matrix";
    for r = col + 1 to n - 1 do
      let f = a.(r).(col) /. d in
      if f <> 0.0 then begin
        for c = col to n - 1 do
          a.(r).(c) <- a.(r).(c) -. (f *. a.(col).(c))
        done;
        b.(r) <- b.(r) -. (f *. b.(col))
      end
    done
  done;
  let x = Array.make n 0.0 in
  for r = n - 1 downto 0 do
    let s = ref b.(r) in
    for c = r + 1 to n - 1 do
      s := !s -. (a.(r).(c) *. x.(c))
    done;
    x.(r) <- !s /. a.(r).(r)
  done;
  x

let simulate circuit ~feature_m ~sources ~tstop ~dt =
  let e = Circuit.electrical circuit in
  let vdd = e.Bisram_tech.Electrical.vdd in
  let n = Circuit.net_count circuit in
  let nsteps = int_of_float (ceil (tstop /. dt)) in
  let pinned = Array.make n None in
  pinned.(Circuit.gnd) <- Some (fun _ -> 0.0);
  pinned.(Circuit.vdd_net circuit) <- Some (fun _ -> vdd);
  List.iter (fun (net, f) -> pinned.(net) <- Some f) sources;
  let devs = Circuit.devices circuit in
  (* Per-net self-capacitance: everything to ground (including MOS gate
     and diffusion parasitics); floating caps handled separately. *)
  let cself =
    Array.init n (fun k ->
        if k = Circuit.gnd then 0.0
        else Circuit.node_capacitance circuit ~feature_m k)
  in
  let v = Array.make n 0.0 in
  v.(Circuit.vdd_net circuit) <- vdd;
  Array.iteri
    (fun k f -> match f with Some f -> v.(k) <- f 0.0 | None -> ())
    pinned;
  let out =
    Array.init n (fun _ ->
        { times = Array.make (nsteps + 1) 0.0
        ; volts = Array.make (nsteps + 1) 0.0
        })
  in
  for k = 0 to n - 1 do
    out.(k).volts.(0) <- v.(k)
  done;
  let half = vdd /. 2.0 in
  for step = 1 to nsteps do
    let t = float_of_int step *. dt in
    let g = Array.make_matrix n n 0.0 in
    let rhs = Array.make n 0.0 in
    let stamp_conductance a b cond =
      g.(a).(a) <- g.(a).(a) +. cond;
      g.(b).(b) <- g.(b).(b) +. cond;
      g.(a).(b) <- g.(a).(b) -. cond;
      g.(b).(a) <- g.(b).(a) -. cond
    in
    (* companion model of a capacitor under backward Euler *)
    let stamp_cap a b farads =
      let gc = farads /. dt in
      stamp_conductance a b gc;
      let ic = gc *. (v.(a) -. v.(b)) in
      rhs.(a) <- rhs.(a) +. ic;
      rhs.(b) <- rhs.(b) -. ic
    in
    List.iter
      (fun d ->
        match d with
        | Circuit.Resistor { a; b; ohms } ->
            if ohms > 0.0 then stamp_conductance a b (1.0 /. ohms)
        | Circuit.Capacitor { a; b; farads } ->
            if a <> Circuit.gnd && b <> Circuit.gnd then stamp_cap a b farads
            (* grounded caps already counted in cself *)
        | Circuit.Mos { kind; gate; drain; source; w; l } ->
            let on =
              match kind with
              | Circuit.Nmos -> v.(gate) > half
              | Circuit.Pmos -> v.(gate) < half
            in
            if on then
              let ron =
                match kind with
                | Circuit.Nmos -> Bisram_tech.Electrical.ron_nmos e ~w ~l
                | Circuit.Pmos -> Bisram_tech.Electrical.ron_pmos e ~w ~l
              in
              stamp_conductance drain source (1.0 /. ron))
      devs;
    (* grounded self-capacitances *)
    for k = 0 to n - 1 do
      if cself.(k) > 0.0 then begin
        let gc = cself.(k) /. dt in
        g.(k).(k) <- g.(k).(k) +. gc;
        rhs.(k) <- rhs.(k) +. (gc *. v.(k))
      end
    done;
    (* pin driven nets by row replacement *)
    for k = 0 to n - 1 do
      match pinned.(k) with
      | Some f ->
          for c = 0 to n - 1 do
            g.(k).(c) <- 0.0
          done;
          g.(k).(k) <- 1.0;
          rhs.(k) <- f t
      | None ->
          (* a truly floating net (no G, no C) gets a tiny leak to gnd so
             the matrix stays nonsingular *)
          if g.(k).(k) = 0.0 then g.(k).(k) <- 1e-12
    done;
    let v' = solve g rhs in
    Array.blit v' 0 v 0 n;
    for k = 0 to n - 1 do
      out.(k).times.(step) <- t;
      out.(k).volts.(step) <- v.(k)
    done
  done;
  { nets = n; samples = out }

let waveform r net =
  assert (net >= 0 && net < r.nets);
  r.samples.(net)

let final r net =
  let w = waveform r net in
  w.volts.(Array.length w.volts - 1)

let crossing w ~level ~rising =
  let n = Array.length w.times in
  let rec go i =
    if i >= n then None
    else
      let prev = w.volts.(i - 1) and cur = w.volts.(i) in
      let crossed =
        if rising then prev < level && cur >= level
        else prev > level && cur <= level
      in
      if crossed then
        (* linear interpolation within the step *)
        let frac = if cur = prev then 0.0 else (level -. prev) /. (cur -. prev) in
        Some (w.times.(i - 1) +. (frac *. (w.times.(i) -. w.times.(i - 1))))
      else go (i + 1)
  in
  if n < 2 then None else go 1

let step ~vdd ~at t = if t < at then 0.0 else vdd
let fall ~vdd ~at t = if t < at then vdd else 0.0
