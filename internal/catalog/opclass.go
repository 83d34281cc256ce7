package catalog

import "fmt"

// OperatorClass is one row of the mini pg_opclass (paper Table 5): it
// links an access method to a column type and declares which operators
// the method supports, by strategy number. Strategy 20 is the NN ordering
// operator "@@", as in the paper's operator class definitions.
type OperatorClass struct {
	Name    string
	AM      string // access method name
	Type    Type   // indexed column type
	Default bool   // default opclass for (AM, Type)
	// Strategies maps operator name -> strategy number.
	Strategies map[string]int
	// NNOp is the ordering operator supported by the class ("" if none).
	NNOp string
	// Support lists the support-function names, mirroring the FUNCTION
	// clauses of CREATE OPERATOR CLASS (informational).
	Support []string
}

// SupportsOp reports whether the class can drive an index scan for op.
func (oc *OperatorClass) SupportsOp(op string) bool {
	_, ok := oc.Strategies[op]
	return ok
}

var opclasses = map[string]*OperatorClass{}

// RegisterOpClass adds an operator class (CREATE OPERATOR CLASS).
func RegisterOpClass(oc *OperatorClass) { opclasses[oc.Name] = oc }

// LookupOpClass finds an operator class by name.
func LookupOpClass(name string) (*OperatorClass, bool) {
	oc, ok := opclasses[name]
	return oc, ok
}

// DefaultOpClass returns the default class for an access method and type.
func DefaultOpClass(amName string, t Type) (*OperatorClass, error) {
	for _, oc := range opclasses {
		if oc.AM == amName && oc.Type == t && oc.Default {
			return oc, nil
		}
	}
	return nil, fmt.Errorf("catalog: no default operator class for %s over %v", amName, t)
}

// ResolveOpClass resolves the operator class for an index over a column
// of type t: by name when opclassName is non-empty (validating that the
// class belongs to the access method and indexes the column type), or
// the default class of (method, t) otherwise. CREATE INDEX and the
// persistent system catalog's schema load both resolve through here, so
// an entry written by one is always readable by the other.
func ResolveOpClass(method, opclassName string, t Type) (*OperatorClass, error) {
	if _, ok := LookupAM(method); !ok {
		return nil, fmt.Errorf("catalog: unknown access method %q", method)
	}
	if opclassName == "" {
		return DefaultOpClass(method, t)
	}
	oc, ok := LookupOpClass(opclassName)
	if !ok {
		return nil, fmt.Errorf("catalog: unknown operator class %q", opclassName)
	}
	if oc.AM != method {
		return nil, fmt.Errorf("catalog: operator class %s belongs to %s, not %s", oc.Name, oc.AM, method)
	}
	if oc.Type != t {
		return nil, fmt.Errorf("catalog: operator class %s indexes %v, not %v", oc.Name, oc.Type, t)
	}
	return oc, nil
}

// OpClasses lists all registered operator classes (for the CLI's \dOC).
func OpClasses() []*OperatorClass {
	var out []*OperatorClass
	for _, oc := range opclasses {
		out = append(out, oc)
	}
	return out
}

func init() {
	// The three operator classes of the paper's Table 5, plus the point
	// quadtree and PMR quadtree classes used by its experiments, plus the
	// baseline classes for the built-in B+-tree and R-tree.
	RegisterOpClass(&OperatorClass{
		Name: "spgist_trie", AM: "spgist", Type: Text, Default: true,
		Strategies: map[string]int{"=": 1, "#=": 2, "?=": 3, "@@": 20},
		NNOp:       "@@",
		Support:    []string{"trie_consistent", "trie_picksplit", "trie_nn_consistent", "trie_getparameters"},
	})
	// The suffix tree's keys are suffixes, not rows: a nearest-suffix
	// order is no row distance order, so the class registers no
	// ordering operator and `<->` plans elsewhere.
	RegisterOpClass(&OperatorClass{
		Name: "spgist_suffix", AM: "spgist", Type: Text,
		Strategies: map[string]int{"@=": 1},
		Support:    []string{"suffix_consistent", "suffix_picksplit", "suffix_getparameters"},
	})
	RegisterOpClass(&OperatorClass{
		Name: "spgist_kdtree", AM: "spgist", Type: Point, Default: true,
		Strategies: map[string]int{"@": 1, "^": 2, "@@": 20},
		NNOp:       "@@",
		Support:    []string{"kdtree_consistent", "kdtree_picksplit", "kdtree_nn_consistent", "kdtree_getparameters"},
	})
	RegisterOpClass(&OperatorClass{
		Name: "spgist_pquadtree", AM: "spgist", Type: Point,
		Strategies: map[string]int{"@": 1, "^": 2, "@@": 20},
		NNOp:       "@@",
		Support:    []string{"pquad_consistent", "pquad_picksplit", "pquad_nn_consistent", "pquad_getparameters"},
	})
	RegisterOpClass(&OperatorClass{
		Name: "spgist_pmr", AM: "spgist", Type: Segment, Default: true,
		Strategies: map[string]int{"=": 1, "&&": 2, "@@": 20},
		NNOp:       "@@",
		Support:    []string{"pmr_consistent", "pmr_picksplit", "pmr_nn_consistent", "pmr_getparameters"},
	})
	RegisterOpClass(&OperatorClass{
		Name: "btree_text", AM: "btree", Type: Text, Default: true,
		Strategies: map[string]int{"<": 1, "<=": 2, "=": 3, ">=": 4, ">": 5, "#=": 6, "?=": 7},
		Support:    []string{"bttextcmp"},
	})
	RegisterOpClass(&OperatorClass{
		Name: "rtree_point", AM: "rtree", Type: Point, Default: true,
		Strategies: map[string]int{"@": 1, "^": 2},
		Support:    []string{"rtree_union", "rtree_inter", "rtree_size"},
	})
	RegisterOpClass(&OperatorClass{
		Name: "rtree_segment", AM: "rtree", Type: Segment, Default: true,
		Strategies: map[string]int{"=": 1, "&&": 2},
		Support:    []string{"rtree_union", "rtree_inter", "rtree_size"},
	})
}
