package proto

import "testing"

func TestPolicyAndVariantNames(t *testing.T) {
	if PolicyINV.String() != "INV" || PolicyUPD.String() != "UPD" || PolicyUNC.String() != "UNC" {
		t.Fatal("policy names wrong")
	}
	if CASPlain.String() != "INV" || CASDeny.String() != "INVd" || CASShare.String() != "INVs" {
		t.Fatal("variant names wrong")
	}
}

func TestOpNamesAndClasses(t *testing.T) {
	if OpCAS.String() != "compare_and_swap" || OpLL.String() != "load_linked" {
		t.Fatal("op names wrong")
	}
	if !OpCAS.IsAtomic() || !OpLL.IsAtomic() || OpLoad.IsAtomic() || OpDropCopy.IsAtomic() {
		t.Fatal("IsAtomic misclassifies")
	}
}

// TestVocabularyNamedAndUsed checks that every cache and home guard and
// action has a name of its own and fires in at least one table row, so an
// action that duplicates another and lost its rows, or a guard no rule
// tests, fails here rather than lingering in the interpreters.
func TestVocabularyNamedAndUsed(t *testing.T) {
	var (
		cacheGuards [numCacheGuards]bool
		cacheActs   [numCacheActs]bool
		homeGuards  [numHomeGuards]bool
		homeActs    [numHomeActs]bool
	)
	cacheRules := func(rules []Rule) {
		for _, r := range rules {
			cacheGuards[r.Guard] = true
			for _, a := range r.Actions {
				cacheActs[a.Do] = true
			}
		}
	}
	homeRules := func(rules []HRule) {
		for _, r := range rules {
			homeGuards[r.Guard] = true
			for _, a := range r.Actions {
				homeActs[a.Do] = true
			}
		}
	}
	for pol := range CacheStart {
		for op := range CacheStart[pol] {
			cacheRules(CacheStart[pol][op].Rules)
		}
	}
	for k := range CacheRecv {
		cacheRules(CacheRecv[k].Rules)
	}
	for st := range HomeReq {
		for k := range HomeReq[st] {
			homeRules(HomeReq[st][k])
		}
	}
	for k := range HomeRet {
		homeRules(HomeRet[k])
	}

	check := func(what string, names []string, used []bool) {
		seen := map[string]int{}
		for i, name := range names {
			if name == "" {
				t.Errorf("%s %d has no name", what, i)
			} else if j, dup := seen[name]; dup {
				t.Errorf("%s %d and %d share the name %q", what, j, i, name)
			}
			seen[name] = i
			if !used[i] {
				t.Errorf("%s %d (%q) is used by no table row", what, i, name)
			}
		}
	}
	check("cache guard", cacheGuardNames[:], cacheGuards[:])
	check("cache action", cacheActNames[:], cacheActs[:])
	check("home guard", homeGuardNames[:], homeGuards[:])
	check("home action", homeActNames[:], homeActs[:])
}
