package oracle

import (
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/coherence"
	"repro/internal/faults"
	"repro/internal/grouping"
	"repro/internal/network"
)

// The knob ledger: every field of coherence.Params, coherence.Variant,
// network.Config and faults.Config (the plan Params.Fault is built from,
// listed as Fault) sits on exactly one of three lists. A field whose type is
// itself walked (Params.Net, a network.Config) is covered by its own fields.
var (
	// decodedKnobs are the fields DecodeRunConfig varies, so the fuzz
	// targets and the harness's checkers see their non-default values.
	decodedKnobs = []string{
		"Params.MeshSize", "Params.MeshWidth", "Params.MeshHeight", "Params.Scheme",
		"Params.Recovery", "Params.Fault",
		"Fault.Seed", "Fault.DropRate", "Fault.AckLossRate", "Fault.LinkStallRate",
		"Fault.LinkStallCycles", "Fault.RouterSlowRate", "Fault.RouterSlowCycles",
	}
	// timingKnobs set how long a step takes or how many flits a message
	// has, never which messages are sent or where they may wait.
	timingKnobs = []string{
		"Params.CacheAccess", "Params.CacheInvalidate", "Params.DirLookup", "Params.MemAccess",
		"Params.SendOccupancy", "Params.RecvOccupancy",
		"Params.BlockBytes", "Params.FlitBytes", "Params.ControlBytes",
		"Config.FlitCycles", "Config.RouterDelay", "Config.InjectDelay",
		"Config.HeaderFlitsUnicast", "Config.DestsPerHeaderFlit",
	}
	// uncheckedKnobs are ROADMAP item 6's table: fabric resources that E8
	// and E12 vary and no checker has seen at a non-default value.
	uncheckedKnobs = []string{
		"Config.ConsumptionChannels", "Config.IAckBuffers", "Config.VCTDeferred",
		"Variant.ConsumptionChannels", "Variant.IAckBuffers", "Variant.VCTDeferred",
	}
)

// ledgerTypes are the walked structs and the names their fields are listed
// under.
var ledgerTypes = []struct {
	typ  reflect.Type
	name string
}{
	{reflect.TypeFor[coherence.Params](), "Params"},
	{reflect.TypeFor[coherence.Variant](), "Variant"},
	{reflect.TypeFor[network.Config](), "Config"},
	{reflect.TypeFor[faults.Config](), "Fault"},
}

// ledgerName is the name typ's fields are listed under, or "" when typ is
// not walked.
func ledgerName(typ reflect.Type) string {
	for _, lt := range ledgerTypes {
		if lt.typ == typ {
			return lt.name
		}
	}
	return ""
}

// knobs lists v's fields as "Type.Field", descending into a field of a
// walked type; values maps each name to the field's value.
func knobs(v reflect.Value, values map[string]reflect.Value) []string {
	var names []string
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if ledgerName(f.Type()) != "" {
			names = append(names, knobs(f, values)...)
			continue
		}
		name := ledgerName(v.Type()) + "." + v.Type().Field(i).Name
		names = append(names, name)
		if values != nil {
			values[name] = f
		}
	}
	return names
}

// ledgerList names the list knob is on, failing unless it is on exactly one.
func ledgerList(t *testing.T, knob string) string {
	t.Helper()
	var on []string
	for name, list := range map[string][]string{
		"decoded": decodedKnobs, "timing-only": timingKnobs, "unchecked": uncheckedKnobs,
	} {
		if slices.Contains(list, knob) {
			on = append(on, name)
		}
	}
	if len(on) != 1 {
		sort.Strings(on)
		t.Errorf("%s is on %d ledger lists %v; put it on exactly one", knob, len(on), on)
		return ""
	}
	return on[0]
}

// TestKnobLedger: every field of the four structs is on exactly one list,
// and every listed name is a field, so adding a knob, or deleting one
// without its row, fails here.
func TestKnobLedger(t *testing.T) {
	var fields []string
	for _, lt := range ledgerTypes {
		fields = append(fields, knobs(reflect.New(lt.typ).Elem(), nil)...)
	}
	for _, f := range fields {
		ledgerList(t, f)
	}
	for _, list := range [][]string{decodedKnobs, timingKnobs, uncheckedKnobs} {
		for _, name := range list {
			if !slices.Contains(fields, name) {
				t.Errorf("the ledger lists %s, which is not a field", name)
			}
		}
	}
}

// TestDecodedKnobsAreDecoded holds the ledger to the decoder: over inputs
// that set each header byte to every value, with and without faults, a
// decoded machine field takes some value other than DefaultParams', a
// decoded fault field some value other than zero in the decoded fault plan,
// and every other field never does.
func TestDecodedKnobsAreDecoded(t *testing.T) {
	def := map[string]reflect.Value{}
	knobs(reflect.ValueOf(coherence.DefaultParams(2, grouping.UIUA)), def)
	knobs(reflect.ValueOf(faults.Config{}), def)
	varied := map[string]bool{}
	for _, allowFaults := range []bool{false, true} {
		for i := 0; i < 8; i++ {
			for b := 0; b < 256; b++ {
				data := make([]byte, 8)
				data[i] = byte(b)
				cfg, err := DecodeRunConfig(data, allowFaults)
				if err != nil {
					t.Fatal(err)
				}
				p := cfg.params()
				got := map[string]reflect.Value{}
				knobs(reflect.ValueOf(p), got)
				if cfg.Fault != nil {
					knobs(reflect.ValueOf(*cfg.Fault), got)
				}
				for name, v := range got {
					if !reflect.DeepEqual(v.Interface(), def[name].Interface()) {
						varied[name] = true
					}
				}
			}
		}
	}
	for name := range def {
		switch list := ledgerList(t, name); {
		case list == "decoded" && !varied[name]:
			t.Errorf("%s is on the decoded list, but DecodeRunConfig never varies it", name)
		case list != "decoded" && list != "" && varied[name]:
			t.Errorf("%s is on the %s list, but DecodeRunConfig varies it", name, list)
		}
	}
}

// TestVariantKnobsMirrorTheMachine: each Variant field sets exactly one
// machine field (a Params field or one of Params.Net's), and sits on that
// field's list.
func TestVariantKnobsMirrorTheMachine(t *testing.T) {
	def := map[string]reflect.Value{}
	knobs(reflect.ValueOf(coherence.DefaultParams(2, grouping.UIUA)), def)
	vt := reflect.TypeFor[coherence.Variant]()
	for i := 0; i < vt.NumField(); i++ {
		name := "Variant." + vt.Field(i).Name
		set := map[string]bool{}
		for _, x := range []int64{1, 2} {
			var v coherence.Variant
			f := reflect.ValueOf(&v).Elem().Field(i)
			switch f.Kind() {
			case reflect.Bool:
				f.SetBool(true)
			case reflect.Int:
				f.SetInt(x)
			default:
				t.Fatalf("%s has kind %v; teach this test to set it", name, f.Kind())
			}
			p := coherence.DefaultParams(2, grouping.UIUA)
			v.Apply(&p)
			got := map[string]reflect.Value{}
			knobs(reflect.ValueOf(p), got)
			for k, gv := range got {
				if !reflect.DeepEqual(gv.Interface(), def[k].Interface()) {
					set[k] = true
				}
			}
		}
		if len(set) != 1 {
			t.Errorf("%s sets %d machine fields %v, want 1", name, len(set), set)
			continue
		}
		for target := range set {
			if a, b := ledgerList(t, name), ledgerList(t, target); a != b {
				t.Errorf("%s is on the %s list but sets %s, which is on the %s list", name, a, target, b)
			}
		}
	}
}
