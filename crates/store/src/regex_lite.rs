//! A tiny regex engine for SPARQL `REGEX`.
//!
//! Supports the subset that federated-benchmark queries actually use:
//! anchors (`^`, `$`), `.`, `*`, `+`, `?`, character classes (`[abc]`,
//! `[a-z]`, `[^…]`), escaped metacharacters, and the `i` (case-insensitive)
//! flag. Unanchored patterns match anywhere in the text, per SPARQL/XPath
//! semantics.
//!
//! Matching is a state-set (Thompson) simulation: with no groups and no
//! alternation a state is just the index of the next pattern item, so one
//! pass over the text keeps a set of at most `items + 1` states and costs
//! O(text × pattern) whatever the pattern — `a*a*a*a*a*a*b` against a long
//! run of `a`s included, which a backtracker takes exponential time on.

/// A compiled pattern: a sequence of items, each one character matcher
/// taken once, any number of times, or at most once (`x+` compiles to `x`
/// then `x*`).
#[derive(Debug, Clone)]
pub struct Regex {
    nodes: Vec<(Node, Count)>,
    anchored_start: bool,
    anchored_end: bool,
    case_insensitive: bool,
}

#[derive(Debug, Clone)]
enum Node {
    Char(char),
    Any,
    Class {
        negated: bool,
        items: Vec<ClassItem>,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Count {
    One,
    Star,
    Opt,
}

#[derive(Debug, Clone)]
enum ClassItem {
    Char(char),
    Range(char, char),
}

/// A pattern compilation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegexError(pub String);

impl std::fmt::Display for RegexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "regex error: {}", self.0)
    }
}

impl std::error::Error for RegexError {}

impl Regex {
    /// Compile `pattern` with SPARQL-style `flags` (only `i` is supported;
    /// other flags are ignored).
    pub fn new(pattern: &str, flags: &str) -> Result<Self, RegexError> {
        let case_insensitive = flags.contains('i');
        let mut chars: Vec<char> = pattern.chars().collect();
        let anchored_start = chars.first() == Some(&'^');
        if anchored_start {
            chars.remove(0);
        }
        let anchored_end = chars.last() == Some(&'$') && !ends_with_escaped_dollar(&chars);
        if anchored_end {
            chars.pop();
        }
        let mut nodes = Vec::new();
        let mut i = 0;
        while i < chars.len() {
            let base = match chars[i] {
                '.' => {
                    i += 1;
                    Node::Any
                }
                '\\' => {
                    i += 1;
                    if i >= chars.len() {
                        return Err(RegexError("dangling escape".into()));
                    }
                    let c = chars[i];
                    i += 1;
                    Node::Char(c)
                }
                '[' => {
                    i += 1;
                    let mut items = Vec::new();
                    let negated = chars.get(i) == Some(&'^');
                    if negated {
                        i += 1;
                    }
                    let mut closed = false;
                    while i < chars.len() {
                        if chars[i] == ']' {
                            i += 1;
                            closed = true;
                            break;
                        }
                        let lo = if chars[i] == '\\' {
                            i += 1;
                            *chars
                                .get(i)
                                .ok_or_else(|| RegexError("dangling escape".into()))?
                        } else {
                            chars[i]
                        };
                        i += 1;
                        if chars.get(i) == Some(&'-') && chars.get(i + 1).is_some_and(|&c| c != ']')
                        {
                            let hi = chars[i + 1];
                            items.push(ClassItem::Range(lo, hi));
                            i += 2;
                        } else {
                            items.push(ClassItem::Char(lo));
                        }
                    }
                    if !closed {
                        return Err(RegexError("unterminated character class".into()));
                    }
                    Node::Class { negated, items }
                }
                '*' | '+' | '?' => {
                    return Err(RegexError("quantifier with nothing to repeat".into()))
                }
                c => {
                    i += 1;
                    Node::Char(c)
                }
            };
            let count = match chars.get(i) {
                Some('*') => Count::Star,
                Some('+') => {
                    nodes.push((base.clone(), Count::One));
                    Count::Star
                }
                Some('?') => Count::Opt,
                _ => Count::One,
            };
            i += usize::from(count != Count::One);
            nodes.push((base, count));
        }
        Ok(Regex {
            nodes,
            anchored_start,
            anchored_end,
            case_insensitive,
        })
    }

    /// Does the pattern match anywhere in `text` (or at the anchored
    /// positions)?
    pub fn is_match(&self, text: &str) -> bool {
        let n = self.nodes.len();
        // `states[i]`: some attempt has matched items `..i`; `n` accepts.
        let mut states = vec![false; n + 1];
        let mut next = vec![false; n + 1];
        self.enter(&mut states, 0);
        let chars: Vec<char> = if self.case_insensitive {
            text.chars().flat_map(|c| c.to_lowercase()).collect()
        } else {
            text.chars().collect()
        };
        for c in chars {
            if states[n] && !self.anchored_end {
                return true;
            }
            next.fill(false);
            for (i, (node, count)) in self.nodes.iter().enumerate() {
                if states[i] && self.single(node, c) {
                    let to = if *count == Count::Star { i } else { i + 1 };
                    self.enter(&mut next, to);
                }
            }
            std::mem::swap(&mut states, &mut next);
            if !self.anchored_start {
                self.enter(&mut states, 0);
            }
        }
        states[n]
    }

    /// Add state `i` and every state reachable from it by skipping
    /// optional items.
    fn enter(&self, states: &mut [bool], mut i: usize) {
        while !states[i] {
            states[i] = true;
            match self.nodes.get(i) {
                Some((_, Count::Star | Count::Opt)) => i += 1,
                _ => return,
            }
        }
    }

    fn single(&self, node: &Node, c: char) -> bool {
        let norm = |x: char| {
            if self.case_insensitive {
                x.to_lowercase().next().unwrap_or(x)
            } else {
                x
            }
        };
        match node {
            Node::Char(p) => norm(*p) == c,
            Node::Any => true,
            Node::Class { negated, items } => {
                let hit = items.iter().any(|item| match item {
                    ClassItem::Char(p) => norm(*p) == c,
                    ClassItem::Range(lo, hi) => (norm(*lo)..=norm(*hi)).contains(&c),
                });
                hit != *negated
            }
        }
    }
}

fn ends_with_escaped_dollar(chars: &[char]) -> bool {
    chars.len() >= 2 && chars[chars.len() - 2] == '\\' && chars[chars.len() - 1] == '$'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(pat: &str, flags: &str, text: &str) -> bool {
        Regex::new(pat, flags).unwrap().is_match(text)
    }

    #[test]
    fn literal_substring() {
        assert!(m("bc", "", "abcd"));
        assert!(!m("bd", "", "abcd"));
    }

    #[test]
    fn anchors() {
        assert!(m("^ab", "", "abcd"));
        assert!(!m("^bc", "", "abcd"));
        assert!(m("cd$", "", "abcd"));
        assert!(!m("bc$", "", "abcd"));
        assert!(m("^abcd$", "", "abcd"));
        assert!(!m("^abcd$", "", "abcde"));
    }

    #[test]
    fn case_insensitive_flag() {
        assert!(m("^AbC", "i", "abcx"));
        assert!(!m("^AbC", "", "abcx"));
    }

    #[test]
    fn dot_and_quantifiers() {
        assert!(m("a.c", "", "xabcx"));
        assert!(m("ab*c", "", "ac"));
        assert!(m("ab*c", "", "abbbc"));
        assert!(m("ab+c", "", "abbc"));
        assert!(!m("ab+c", "", "ac"));
        assert!(m("ab?c", "", "ac"));
        assert!(m("ab?c", "", "abc"));
        assert!(m("a.*d", "", "a-x-y-d"));
    }

    #[test]
    fn classes() {
        assert!(m("[abc]x", "", "zbx"));
        assert!(!m("[abc]x", "", "zdx"));
        assert!(m("[a-f]9", "", "e9"));
        assert!(m("[^0-9]z", "", "az"));
        assert!(!m("[^0-9]z", "", "5z"));
    }

    #[test]
    fn escapes() {
        assert!(m(r"a\.b", "", "xa.bx"));
        assert!(!m(r"a\.b", "", "xaxbx"));
        assert!(m(r"\[x\]", "", "[x]"));
    }

    #[test]
    fn compile_errors() {
        assert!(Regex::new("*a", "").is_err());
        assert!(Regex::new("[abc", "").is_err());
        assert!(Regex::new("a\\", "").is_err());
    }

    /// The backtracking matcher the state-set simulation replaced, kept as
    /// the oracle of the differential test below.
    fn match_here(re: &Regex, text: &[char], pos: usize, i: usize) -> bool {
        let Some((node, count)) = re.nodes.get(i) else {
            return !re.anchored_end || pos == text.len();
        };
        let hit = |p: usize| p < text.len() && re.single(node, text[p]);
        match count {
            Count::One => hit(pos) && match_here(re, text, pos + 1, i + 1),
            Count::Opt => {
                (hit(pos) && match_here(re, text, pos + 1, i + 1))
                    || match_here(re, text, pos, i + 1)
            }
            Count::Star => {
                let mut reach = pos;
                while hit(reach) {
                    reach += 1;
                }
                (pos..=reach).rev().any(|r| match_here(re, text, r, i + 1))
            }
        }
    }

    fn backtracking_is_match(re: &Regex, text: &str) -> bool {
        let chars: Vec<char> = if re.case_insensitive {
            text.chars().flat_map(|c| c.to_lowercase()).collect()
        } else {
            text.chars().collect()
        };
        let last = if re.anchored_start { 0 } else { chars.len() };
        (0..=last).any(|start| match_here(re, &chars, start, 0))
    }

    #[test]
    fn state_sets_agree_with_backtracking() {
        let atoms = ["a", "b", "A", ".", "[ab]", "[^a]", "[a-b]", r"\.", "c"];
        let mut seed = 11u64;
        let mut draw = |k: usize| crate::splitmix(&mut seed) as usize % k;
        for case in 0..4000 {
            let mut pattern = String::new();
            if draw(3) == 0 {
                pattern.push('^');
            }
            for _ in 0..draw(7) {
                pattern.push_str(atoms[draw(atoms.len())]);
                pattern.push_str(["", "", "*", "+", "?"][draw(5)]);
            }
            if draw(3) == 0 {
                pattern.push('$');
            }
            let flags = ["", "i"][draw(2)];
            let text: String = (0..draw(9))
                .map(|_| ['a', 'b', 'A', 'B', '.', 'c'][draw(6)])
                .collect();
            let re = Regex::new(&pattern, flags).unwrap();
            assert_eq!(
                re.is_match(&text),
                backtracking_is_match(&re, &text),
                "case {case}: /{pattern}/{flags} on {text:?}"
            );
        }
    }

    #[test]
    fn stars_take_linear_time() {
        // A backtracker tries every split of the run among the stars: this
        // one took 94 s on 80 `a`s.
        let re = Regex::new("a*a*a*a*a*a*b", "").unwrap();
        assert!(!re.is_match(&"a".repeat(80)));
        assert!(re.is_match(&format!("{}b", "a".repeat(80))));
        let start = std::time::Instant::now();
        let re = Regex::new(&format!("{}b", "a*".repeat(20)), "i").unwrap();
        assert!(!re.is_match(&"a".repeat(10_000)));
        // Well under 10 ms in a release build; generous for a debug one.
        assert!(start.elapsed() < std::time::Duration::from_secs(2));
    }

    #[test]
    fn empty_pattern_matches_everything() {
        assert!(m("", "", ""));
        assert!(m("", "", "anything"));
        assert!(m("^$", "", ""));
        assert!(!m("^$", "", "x"));
    }
}
